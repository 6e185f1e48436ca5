package simtime

// Lockstep is the conservative window barrier shared by the parallel
// executors (sharded replay and the multi-array fleet): n participants,
// each owning a disjoint set of engines, are advanced through a common
// window bound and joined before the coordinator touches their state.
//
// With n > 1 every participant runs on its own goroutine behind an
// unbuffered limit/drained channel pair.  The handshake is the only
// synchronisation: the coordinator's send on limit happens-before the
// participant's drain, and the participant's send on drained
// happens-before DrainThrough returns, so coordinator code between
// windows may read and reset participant state without locks.  Sending a
// Time over an unbuffered channel allocates nothing, so a window costs no
// heap allocation.  With n == 1 the drain runs inline on the caller's
// goroutine and no goroutine is started.
type Lockstep struct {
	drain   func(i int, limit Time)
	limit   []chan Time
	drained []chan struct{}
}

// NewLockstep starts a barrier over n participants; drain(i, limit) must
// advance participant i's engines through limit (usually via
// Engine.DrainThrough).  Call Close when done to stop the goroutines.
func NewLockstep(n int, drain func(i int, limit Time)) *Lockstep {
	l := &Lockstep{drain: drain}
	if n <= 1 {
		return l
	}
	l.limit = make([]chan Time, n)
	l.drained = make([]chan struct{}, n)
	for i := range l.limit {
		l.limit[i] = make(chan Time)
		l.drained[i] = make(chan struct{})
		go l.run(i)
	}
	return l
}

// run is participant i's loop: drain through each limit it is handed,
// acknowledge, and close drained once the barrier is closed.
func (l *Lockstep) run(i int) {
	for limit := range l.limit[i] {
		l.drain(i, limit)
		l.drained[i] <- struct{}{}
	}
	close(l.drained[i])
}

// DrainThrough advances every participant through limit and returns once
// all of them have finished.
func (l *Lockstep) DrainThrough(limit Time) {
	if l.limit == nil {
		l.drain(0, limit)
		return
	}
	for _, c := range l.limit {
		c <- limit
	}
	for _, c := range l.drained {
		<-c
	}
}

// Close stops the participant goroutines and waits for each to leave its
// loop.  The barrier must not be used afterwards.
func (l *Lockstep) Close() {
	for _, c := range l.limit {
		close(c)
	}
	for _, c := range l.drained {
		<-c
	}
}
