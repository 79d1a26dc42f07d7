package engine

import "sync"

type Engine struct {
	mu sync.Mutex
	ch chan int
}

// publishJobLocked holds e.mu by naming convention: a bare send here
// blocks every Engine caller behind one slow receiver.
func (e *Engine) publishJobLocked(v int) {
	e.ch <- v // want `blocking channel send while a mutex is held`
}

func (e *Engine) submit(v int) {
	e.mu.Lock()
	e.ch <- v // want `blocking channel send while a mutex is held`
	e.mu.Unlock()
	e.ch <- v // fine: the lock is released
}

func (e *Engine) submitDeferred(v int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ch <- v // want `blocking channel send while a mutex is held`
}

func (e *Engine) submitNonBlocking(v int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case e.ch <- v: // fine: select with default never blocks
	default:
	}
}
