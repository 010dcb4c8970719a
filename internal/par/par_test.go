package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// goroutineID parses the calling goroutine's ID out of its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 8, n + 3} {
			calls := make([]atomic.Int32, n)
			For(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForSerialInIndexOrder(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		For(100, workers, func(i int) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: index %d ran on goroutine %s, want the caller's %s", workers, i, id, caller)
			}
			order = append(order, i)
		})
		if len(order) != 100 {
			t.Fatalf("workers=%d: %d calls, want 100", workers, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: call %d got index %d", workers, i, got)
			}
		}
	}
}
