package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
BenchmarkEquivalent-2   	     100	     20000 ns/op	    1000 B/op	      10 allocs/op
BenchmarkEquivalent-2   	     100	     22000 ns/op	    1000 B/op	      10 allocs/op
`

// TestSnapshotRecordsHost checks that every snapshot names its host and
// that the -compare gate reads only the benchmark figures, so snapshots
// taken on different hosts, or before the host was recorded, compare.
func TestSnapshotRecordsHost(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleBench), "cur")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NProc != runtime.NumCPU() || snap.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("host nproc=%d gomaxprocs=%d, want %d and %d",
			snap.NProc, snap.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc":`, `"gomaxprocs":`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON lacks %s: %s", key, data)
		}
	}
	var prev Snapshot
	if err := json.Unmarshal([]byte(`{"pr":"old","benchmarks":[{"name":"BenchmarkEquivalent","ns_per_op":21000,"allocs_per_op":10}]}`), &prev); err != nil {
		t.Fatal(err)
	}
	if f := gateRegression(&prev, snap, 0.2, 0.2); len(f) != 0 {
		t.Fatalf("compare against a snapshot without host fields failed: %v", f)
	}
}
