package ts

import "fmt"

// CacheCoherence builds an MSI-style cache-coherence protocol over n
// caches sharing one line. Each cache is Invalid, Shared or Modified and
// may have one outstanding read or write request; granting a write
// invalidates every other cache, granting a read downgrades a Modified
// holder to Shared. The family is the coherence-protocol workload of the
// verify-protocols benchmark: its reachable space grows geometrically in
// n while the single-writer invariant stays easy to state.
//
// Per cache i: readReq_i / writeReq_i (unfair) post a request; grantS_i /
// grantM_i (weak) serve it — a posted request disables nothing else that
// could clear it, so weak fairness alone guarantees service; evict_i
// (unfair) silently drops a quiescent non-Invalid line.
//
// Propositions: i<j>, s<j>, m<j> (cache j's state), rd<j>, wr<j> (cache
// j's outstanding request).
func CacheCoherence(n int) (*System, error) {
	if n < 2 || n > maxScenarioN {
		return nil, fmt.Errorf("ts: CacheCoherence size %d out of range [2, %d]", n, maxScenarioN)
	}
	const (
		inv int8 = iota
		shared
		modified
	)
	const (
		none int8 = iota
		read
		write
	)
	type conf struct {
		st   [maxScenarioN]int8
		want [maxScenarioN]int8
	}
	name := func(c conf) string {
		return fmt.Sprintf("s%v w%v", c.st[:n], c.want[:n])
	}
	props := func(c conf) []string {
		var out []string
		for i := 0; i < n; i++ {
			switch c.st[i] {
			case inv:
				out = append(out, fmt.Sprintf("i%d", i))
			case shared:
				out = append(out, fmt.Sprintf("s%d", i))
			case modified:
				out = append(out, fmt.Sprintf("m%d", i))
			}
			switch c.want[i] {
			case read:
				out = append(out, fmt.Sprintf("rd%d", i))
			case write:
				out = append(out, fmt.Sprintf("wr%d", i))
			}
		}
		return out
	}
	var trans []protoTransition[conf]
	for i := 0; i < n; i++ {
		i := i
		trans = append(trans,
			protoTransition[conf]{fmt.Sprintf("readReq%d", i), Unfair, func(c conf) []conf {
				if c.st[i] != inv || c.want[i] != none {
					return nil
				}
				c.want[i] = read
				return []conf{c}
			}},
			protoTransition[conf]{fmt.Sprintf("writeReq%d", i), Unfair, func(c conf) []conf {
				if c.st[i] == modified || c.want[i] != none {
					return nil
				}
				c.want[i] = write
				return []conf{c}
			}},
			protoTransition[conf]{fmt.Sprintf("grantS%d", i), Weak, func(c conf) []conf {
				if c.want[i] != read {
					return nil
				}
				for j := 0; j < n; j++ {
					if c.st[j] == modified {
						c.st[j] = shared
					}
				}
				c.st[i] = shared
				c.want[i] = none
				return []conf{c}
			}},
			protoTransition[conf]{fmt.Sprintf("grantM%d", i), Weak, func(c conf) []conf {
				if c.want[i] != write {
					return nil
				}
				for j := 0; j < n; j++ {
					c.st[j] = inv
				}
				c.st[i] = modified
				c.want[i] = none
				return []conf{c}
			}},
			protoTransition[conf]{fmt.Sprintf("evict%d", i), Unfair, func(c conf) []conf {
				if c.st[i] == inv || c.want[i] != none {
					return nil
				}
				c.st[i] = inv
				return []conf{c}
			}},
		)
	}
	return buildReachable([]conf{{}}, name, props, trans)
}

// CacheCoherenceSpecs returns known-verdict specifications of
// CacheCoherence(n): single-writer safety, request-service response
// properties that hold under weak fairness alone, and the persistence/
// recurrence properties an adversarial (but fair) scheduler can defeat.
func CacheCoherenceSpecs(n int) []ScenarioSpec {
	return []ScenarioSpec{
		{Formula: "G !(m0 & m1)", Holds: true},
		{Formula: "G (m0 -> !s1)", Holds: true},
		{Formula: "G (wr0 -> F m0)", Holds: true},
		{Formula: "G (rd0 -> F s0)", Holds: true},
		{Formula: "F G i0", Holds: false},
		{Formula: "G F i0", Holds: false},
	}
}
