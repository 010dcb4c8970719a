// Package par runs index-addressed loops on a bounded number of
// goroutines. It is the repository's one fork/join worker pool: callers
// write each index's result to a slot that index owns and fold the slots
// serially, in index order, once For returns, so what they compute never
// depends on the worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) exactly once for every i in [0, n) on at most workers
// goroutines and returns when every call has returned. Workers claim
// indexes in increasing order from one atomic cursor. With workers ≤ 1
// (or n ≤ 1) fn runs serially, in index order, on the calling goroutine.
func For(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
