package jobqueue

import "time"

// Class is a job's priority class. Dispatch across classes is
// weight-proportional, not strict: interactive work is served roughly
// classWeights[ClassInteractive] times as often as batch work when both are
// backlogged, but every class with pending jobs makes progress each credit
// round — a sustained interactive flood cannot starve a queued batch job.
type Class int

// The three priority classes, highest-weight first. The daemon maps single
// experiment submissions to ClassInteractive and sweep points to ClassSweep
// by default; ClassBatch is the explicit bulk tier.
const (
	ClassInteractive Class = iota
	ClassSweep
	ClassBatch
	numClasses int = iota
)

// classWeights is each class's dispatch credit per round-robin refill round:
// with full backlogs the drain ratio is 8:2:1.
var classWeights = [numClasses]int{8, 2, 1}

// String returns the class name used on the wire and in metrics labels.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassSweep:
		return "sweep"
	case ClassBatch:
		return "batch"
	default:
		return "unknown"
	}
}

// Classes lists every class in dispatch-priority order, for metrics ranges.
func Classes() []Class {
	return []Class{ClassInteractive, ClassSweep, ClassBatch}
}

// sched is the fair dispatch structure behind Queue: per-(submitter, group)
// FIFO queues, round-robin across the queues of one class, deficit-weighted
// round-robin across classes. All methods require Queue.mu.
type sched struct {
	queued  int
	classes [numClasses]classQueue
}

// classQueue holds one priority class's group ring. ring is the round-robin
// order of non-empty groups; next is the cursor of the group served next.
type classQueue struct {
	groups map[string]*groupQueue
	ring   []*groupQueue
	next   int
	credit int
	depth  int
}

// groupQueue is one fairness key's FIFO backlog. head indexes the next job
// so a pop is O(1); the slice is compacted when the dead prefix dominates.
type groupQueue struct {
	key  string
	jobs []*job
	head int
}

func (g *groupQueue) len() int { return len(g.jobs) - g.head }

func (g *groupQueue) push(j *job) { g.jobs = append(g.jobs, j) }

func (g *groupQueue) pop() *job {
	j := g.jobs[g.head]
	g.jobs[g.head] = nil
	g.head++
	if g.head > 64 && g.head*2 >= len(g.jobs) {
		g.jobs = append(g.jobs[:0], g.jobs[g.head:]...)
		g.head = 0
	}
	return j
}

// remove deletes one job from the group's pending window; it reports whether
// the job was found. O(n) in the group's backlog — only cancellation paths
// pay it.
func (g *groupQueue) remove(j *job) bool {
	for i := g.head; i < len(g.jobs); i++ {
		if g.jobs[i] == j {
			g.jobs = append(g.jobs[:i], g.jobs[i+1:]...)
			return true
		}
	}
	return false
}

// schedKey is the fairness identity jobs are queued under: one FIFO lane per
// (submitter, group) pair, so two submitters' interactive jobs interleave
// and two concurrent sweeps drain point-by-point instead of sweep-by-sweep.
func schedKey(submitter, group string) string {
	return submitter + "\x00" + group
}

// push enqueues j under its class and fairness key.
func (s *sched) push(j *job) {
	cq := &s.classes[j.class]
	if cq.groups == nil {
		cq.groups = map[string]*groupQueue{}
	}
	g, ok := cq.groups[j.schedKey]
	if !ok {
		g = &groupQueue{key: j.schedKey}
		cq.groups[j.schedKey] = g
		cq.ring = append(cq.ring, g)
	}
	g.push(j)
	cq.depth++
	s.queued++
}

// pop returns the next job to dispatch, or nil when nothing is queued.
//
// Class selection is deficit-weighted round-robin: classes are scanned in
// priority order and served while they hold credit; when every backlogged
// class is out of credit, all credits refill to the class weights and the
// scan restarts. Within a class, groups are served round-robin, one job per
// turn, FIFO within each group.
func (s *sched) pop() *job {
	if s.queued == 0 {
		return nil
	}
	for {
		for c := range s.classes {
			cq := &s.classes[c]
			if cq.depth == 0 {
				continue
			}
			if cq.credit > 0 {
				cq.credit--
				return s.popClass(cq)
			}
		}
		// Every backlogged class exhausted its credit: start a new round.
		for c := range s.classes {
			s.classes[c].credit = classWeights[c]
		}
	}
}

// popInteractive returns the next interactive job, round-robin across its
// lanes, or nil when none is queued. It bypasses the class credits: a lent
// job takes no dispatch slot from the other classes.
func (s *sched) popInteractive() *job {
	cq := &s.classes[ClassInteractive]
	if cq.depth == 0 {
		return nil
	}
	return s.popClass(cq)
}

// popClass serves the cursor group's head job and advances the ring.
func (s *sched) popClass(cq *classQueue) *job {
	if cq.next >= len(cq.ring) {
		cq.next = 0
	}
	g := cq.ring[cq.next]
	j := g.pop()
	if g.len() == 0 {
		cq.ring = append(cq.ring[:cq.next], cq.ring[cq.next+1:]...)
		delete(cq.groups, g.key)
	} else {
		cq.next++
	}
	cq.depth--
	s.queued--
	return j
}

// remove takes a still-queued job out of its lane (cancellation path). It
// reports whether the job was found; a job already handed to a worker is not.
func (s *sched) remove(j *job) bool {
	cq := &s.classes[j.class]
	g, ok := cq.groups[j.schedKey]
	if !ok || !g.remove(j) {
		return false
	}
	cq.depth--
	s.queued--
	if g.len() == 0 {
		for i, rg := range cq.ring {
			if rg == g {
				cq.ring = append(cq.ring[:i], cq.ring[i+1:]...)
				if cq.next > i {
					cq.next--
				}
				break
			}
		}
		delete(cq.groups, g.key)
	}
	return true
}

// classDepth returns how many jobs class c has queued.
func (s *sched) classDepth(c Class) int { return s.classes[c].depth }

// oldestCreated returns the enqueue time of class c's oldest queued job and
// whether the class has any. Group heads are each lane's oldest entry, so
// scanning heads is enough.
func (s *sched) oldestCreated(c Class) (time.Time, bool) {
	var oldest time.Time
	found := false
	for _, g := range s.classes[c].groups {
		if g.len() == 0 {
			continue
		}
		if t := g.jobs[g.head].created; !found || t.Before(oldest) {
			oldest, found = t, true
		}
	}
	return oldest, found
}
