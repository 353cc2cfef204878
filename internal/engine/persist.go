package engine

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/store"
)

// WithPersistentStore adds a disk-backed verdict tier behind the memo
// cache: terminal classification and planned containment/emptiness
// verdicts are persisted to the append-only log at path, and a fresh
// process re-serves them from disk instead of recomputing (warm start).
//
// The store extends the cache discipline to disk: only terminal,
// non-faulted, non-fallback verdicts are ever written, and any store
// error — a corrupt record, a failing disk, an injected fault — trips a
// circuit breaker that self-disables the store while the engine
// degrades gracefully to in-memory operation. A store that cannot even
// be opened (corrupt header, permission trouble) leaves the engine
// fully functional; StoreStats reports why.
//
// Writes are write-behind on a bounded queue; call Close (or Flush via
// the store's own handle) before process exit to make them durable.
func WithPersistentStore(path string) Option {
	return func(e *Engine) { e.storePath = path }
}

// openStore is called by New after options are applied.
func (e *Engine) openStore() {
	if e.storePath == "" {
		return
	}
	st, err := store.Open(e.storePath)
	if err != nil {
		e.storeErr = err
		return
	}
	e.store = st
}

// StoreStats reports the persistent tier's state. Without a configured
// store it returns a zero Stats (Enabled false, empty Reason); when the
// store failed to open, Reason carries the open error.
func (e *Engine) StoreStats() store.Stats { return e.storeStats() }

func (e *Engine) storeStats() store.Stats {
	if e.store != nil {
		return e.store.Stats()
	}
	st := store.Stats{}
	if e.storeErr != nil {
		st.Reason = e.storeErr.Error()
	}
	return st
}

// Close flushes and closes the persistent store, making write-behind
// verdicts durable. Engines without a store close trivially; Close is
// idempotent. The engine itself stays usable afterwards — it simply
// runs in-memory-only from then on.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// storeGetClass reads through to the persistent tier for a
// classification verdict.
func (e *Engine) storeGetClass(key string) (core.Classification, bool) {
	if e.store == nil {
		return core.Classification{}, false
	}
	return e.store.GetClassification(key)
}

func (e *Engine) storePutClass(key string, c core.Classification) {
	if e.store != nil {
		e.store.PutClassification(key, c)
	}
}

// storeGetOutcome reads through to the persistent tier for a planned
// containment/emptiness verdict.
func (e *Engine) storeGetOutcome(key string) (plan.Outcome, bool) {
	if e.store == nil {
		return plan.Outcome{}, false
	}
	return e.store.GetOutcome(key)
}

// storePutOutcome persists a terminal planned verdict. Fallback
// outcomes must never reach here — the caller filters them, exactly as
// it filters them from the memo cache.
func (e *Engine) storePutOutcome(key string, out plan.Outcome) {
	if e.store != nil && !out.Fallback {
		e.store.PutOutcome(key, out)
	}
}

// RegisterStatsGauges publishes this engine's per-tier cache figures as
// computed gauges on reg (obs.Default() when nil): resident entries,
// hits, misses and the hit ratio for the in-memory memo tier and the
// persistent store tier, under engine.tier.*{tier="memory"|"store"},
// plus engine.store.enabled as a 0/1 health gauge. Registering a second
// engine on the same registry replaces the callbacks — publish the
// long-lived serving engine, not transients.
func (e *Engine) RegisterStatsGauges(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	memory := obs.Label{Key: "tier", Value: "memory"}
	disk := obs.Label{Key: "tier", Value: "store"}
	ratio := func(hits, misses int64) int64 {
		if hits+misses == 0 {
			return 0
		}
		return hits * 100 / (hits + misses)
	}
	reg.GaugeFunc("engine.tier.entries", func() int64 { return e.cache.stats().Entries }, memory)
	reg.GaugeFunc("engine.tier.hits", func() int64 { return e.cache.stats().Hits }, memory)
	reg.GaugeFunc("engine.tier.misses", func() int64 { return e.cache.stats().Misses }, memory)
	reg.GaugeFunc("engine.tier.evictions", func() int64 { return e.cache.stats().Evictions }, memory)
	reg.GaugeFunc("engine.tier.hit_ratio_pct", func() int64 {
		st := e.cache.stats()
		return ratio(st.Hits, st.Misses)
	}, memory)
	reg.GaugeFunc("engine.tier.entries", func() int64 { return e.storeStats().Records }, disk)
	reg.GaugeFunc("engine.tier.hits", func() int64 { return e.storeStats().Hits }, disk)
	reg.GaugeFunc("engine.tier.misses", func() int64 { return e.storeStats().Misses }, disk)
	reg.GaugeFunc("engine.tier.hit_ratio_pct", func() int64 {
		st := e.storeStats()
		return ratio(st.Hits, st.Misses)
	}, disk)
	reg.GaugeFunc("engine.store.enabled", func() int64 {
		if e.storeStats().Enabled {
			return 1
		}
		return 0
	})
}
