package serve

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// pollEvery bounds the daemon's forced network polls to one per interval.
const pollEvery = time.Millisecond

// osPipe makes the forced-poll pipe; tests replace it to make it fail.
var osPipe = os.Pipe

// netPoller is the daemon's forced network poll, a self-pipe. park writes
// one byte and blocks for a token, so its goroutine's P goes idle and runs
// the scheduler's non-blocking network poll on the way to other work. That
// poll readies every goroutine whose connection has become readable, and
// with them the reader goroutine, parked on the pipe's read end, which
// hands back one token per byte it reads. The job queue calls park from
// the engine's checkpoints while every P computes (jobqueue.SetNetPoll).
type netPoller struct {
	r, w   *os.File      // nil when the pipe could not be made
	token  chan struct{} // one per byte the reader reads
	closed chan struct{} // closed by Close
	exited chan struct{} // closed when the reader returns
	once   sync.Once
	epoch  time.Time
	last   atomic.Int64  // ns after epoch of the latest forced poll
	forced atomic.Uint64 // completed forced polls
}

// newNetPoller makes the pipe and starts its reader. When the pipe cannot
// be made, park never parks and the checkpoints keep runtime.Gosched.
func newNetPoller() *netPoller {
	p := &netPoller{
		token: make(chan struct{}, 1), closed: make(chan struct{}),
		exited: make(chan struct{}), epoch: time.Now(),
	}
	r, w, err := osPipe()
	if err != nil {
		close(p.exited)
		return p
	}
	p.r, p.w = r, w
	go p.read()
	return p
}

func (p *netPoller) read() {
	defer close(p.exited)
	var buf [64]byte
	for {
		n, err := p.r.Read(buf[:])
		for range n {
			select {
			case p.token <- struct{}{}:
			case <-p.closed:
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// park forces one pass through the network poller, at most once per
// pollEvery across all callers, and reports whether it did; false means
// the caller should yield some other way.
func (p *netPoller) park() bool {
	if p.w == nil {
		return false
	}
	now := int64(time.Since(p.epoch))
	last := p.last.Load()
	if now-last < int64(pollEvery) || !p.last.CompareAndSwap(last, now) {
		return false
	}
	if _, err := p.w.Write([]byte{0}); err != nil {
		return false // closed
	}
	select {
	case <-p.token:
		p.forced.Add(1)
		return true
	case <-p.closed:
		return false
	}
}

// Close closes the pipe and waits for the reader to exit; park never parks
// afterwards. It is idempotent.
func (p *netPoller) Close() {
	p.once.Do(func() {
		close(p.closed)
		if p.w != nil {
			p.w.Close()
			p.r.Close()
		}
	})
	<-p.exited
}
