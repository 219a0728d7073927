package experiments

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// liveHeap returns the bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle also frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCorpusPassesKeepHeapFlat: evaluating fresh corpora back to back in
// one process must not retain anything of the earlier passes. Everything a
// pass memoizes per project (parses, the dynamic call graph) has to be
// released with its projects; a process-global memo keyed by project once
// kept every pass alive, about 10 MB per pass.
func TestCorpusPassesKeepHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("six full corpus passes")
	}
	const passes, slack = 6, 3 << 20
	var heap [passes]uint64
	for i := range heap {
		if _, err := RunCorpusOpts(corpus.All(), Options{WithDynCG: true, WithAblation: true}); err != nil {
			t.Fatal(err)
		}
		heap[i] = liveHeap()
		t.Logf("pass %d: live heap %.1f MB", i+1, float64(heap[i])/(1<<20))
	}
	if heap[passes-1] > heap[1]+slack {
		t.Fatalf("live heap grew from %.1f MB after pass 2 to %.1f MB after pass %d",
			float64(heap[1])/(1<<20), float64(heap[passes-1])/(1<<20), passes)
	}
}
