package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// timing holds one operation's clock readings. In a closed loop an
// operation is due when it is sent.
type timing struct {
	due, start, end time.Time
}

// latency is measured from the due time, so in an open loop the wait an
// earlier stall imposes on later operations is counted.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// late is how long after its due time the generator sent the operation.
func (t timing) late() time.Duration { return t.start.Sub(t.due) }

// openLoop runs n operations on a fixed schedule, the i-th due at
// i/rate seconds after the start, on the given number of workers. A
// worker still busy when an operation falls due sends it late; do(i)
// runs exactly once for every i.
func openLoop(n int, rate float64, workers int, do func(i int)) []timing {
	out := make([]timing, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				start := time.Now()
				do(i)
				out[i] = timing{due: due, start: start, end: time.Now()}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep can wake up to a millisecond late when the
// process is otherwise idle, which would add that much to every
// open-loop latency; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// closedLoop runs operations back to back on the given number of
// workers, each sending its next operation when the previous one has
// answered, until d has passed or limit operations have started. It
// returns the timings of operations 0..k-1 that ran, in index order.
func closedLoop(d time.Duration, limit, workers int, do func(i int)) []timing {
	type rec struct {
		i int
		t timing
	}
	var next atomic.Int64
	deadline := time.Now().Add(d)
	recs := make([][]rec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				start := time.Now()
				do(i)
				recs[w] = append(recs[w], rec{i, timing{due: start, start: start, end: time.Now()}})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for _, rs := range recs {
		n += len(rs)
	}
	out := make([]timing, n)
	for _, rs := range recs {
		for _, r := range rs {
			out[r.i] = r.t
		}
	}
	return out
}

// mix is the splitmix64 finalizer: a cheap, well-spread hash that turns
// (seed, index) into the random choices of operation index, so any
// operation can be regenerated without replaying a shared generator.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
