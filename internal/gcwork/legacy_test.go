package gcwork_test

// legacyPool is a trimmed copy of the first gcwork implementation, kept
// test-side only as the baseline for BenchmarkDrain's old-vs-new
// comparison. It shares work the way the pool does, through one
// mutex-and-cond chunk stack; it differs in spawning its workers on
// every drain and in copying every seed chunk.

import (
	"sync"

	"lxr/internal/mem"
)

const legacyChunk = 512

type legacyPool struct{ n int }

type legacyWorker struct {
	id    int
	local []mem.Address
	sh    *legacyShared
}

type legacyShared struct {
	mu      sync.Mutex
	cond    *sync.Cond
	chunks  [][]mem.Address
	waiting int
	n       int
	done    bool
}

func (w *legacyWorker) push(a mem.Address) {
	w.local = append(w.local, a)
	if len(w.local) >= 2*legacyChunk {
		c := make([]mem.Address, legacyChunk)
		copy(c, w.local[:legacyChunk])
		w.local = append(w.local[:0], w.local[legacyChunk:]...)
		w.sh.mu.Lock()
		w.sh.chunks = append(w.sh.chunks, c)
		w.sh.mu.Unlock()
		w.sh.cond.Signal()
	}
}

func (w *legacyWorker) steal() bool {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if len(sh.chunks) > 0 {
			c := sh.chunks[len(sh.chunks)-1]
			sh.chunks = sh.chunks[:len(sh.chunks)-1]
			w.local = append(w.local, c...)
			return true
		}
		sh.waiting++
		if sh.waiting == sh.n {
			sh.done = true
			sh.cond.Broadcast()
			return false
		}
		for len(sh.chunks) == 0 && !sh.done {
			sh.cond.Wait()
		}
		sh.waiting--
		if sh.done {
			return false
		}
	}
}

func (p *legacyPool) drain(seed []mem.Address, f func(w *legacyWorker, a mem.Address)) {
	sh := &legacyShared{n: p.n}
	sh.cond = sync.NewCond(&sh.mu)
	for i := 0; i < len(seed); i += legacyChunk {
		end := min(i+legacyChunk, len(seed))
		c := make([]mem.Address, end-i)
		copy(c, seed[i:end])
		sh.chunks = append(sh.chunks, c)
	}
	var wg sync.WaitGroup
	for i := 0; i < p.n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &legacyWorker{id: id, sh: sh}
			for {
				var a mem.Address
				if n := len(w.local); n > 0 {
					a = w.local[n-1]
					w.local = w.local[:n-1]
				} else {
					if !w.steal() {
						break
					}
					continue
				}
				f(w, a)
			}
		}(i)
	}
	wg.Wait()
}
