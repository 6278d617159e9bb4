package runner

import (
	"context"
	"sync"
	"testing"
	"time"
)

// eventCounts records the kinds of events a runner emits.
type eventCounts struct {
	mu sync.Mutex
	n  map[EventKind]int
}

func watch(r *Runner) *eventCounts {
	c := &eventCounts{n: map[EventKind]int{}}
	r.Emit = func(ev Event) {
		c.mu.Lock()
		c.n[ev.Kind]++
		c.mu.Unlock()
	}
	return c
}

func (c *eventCounts) get(k EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[k]
}

// terminal counts the events that end a submission.
func (c *eventCounts) terminal() int {
	return c.get(EventDedup) + c.get(EventCached) + c.get(EventDone) + c.get(EventFailed) + c.get(EventCanceled)
}

// TestEachSubmissionEmitsOneTerminalEvent: submissions that wait on an
// in-flight leader, and a later one served from the memo, each emit
// exactly one terminal event, so the daemon's per-kind job counters add
// up to the number of submissions.
func TestEachSubmissionEmitsOneTerminalEvent(t *testing.T) {
	orig := simulate
	defer func() { simulate = orig }()
	gate := make(chan struct{})
	simulate = func(j Job, res *Result, hk hooks) error {
		<-gate
		res.Completed = true
		return nil
	}

	r := New(2, nil)
	ev := watch(r)
	job := tinyJob("gauss", "lrc")
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(context.Background(), job)
		}()
	}
	for ev.get(EventQueued) < 4 || ev.get(EventRunning) < 1 {
		time.Sleep(time.Millisecond)
	}
	// Give the three followers time to attach to the in-flight leader.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	r.Do(context.Background(), job)

	if q, term := ev.get(EventQueued), ev.terminal(); q != 5 || term != 5 {
		t.Fatalf("%d queued and %d terminal events for 5 submissions (%d dedup, %d done)",
			q, term, ev.get(EventDedup), ev.get(EventDone))
	}
	if d := ev.get(EventDedup); d != 4 {
		t.Fatalf("%d dedup events, want 4", d)
	}
}

// mapStore is an in-memory ResultStore.
type mapStore struct {
	mu sync.Mutex
	m  map[string]Result
}

func (s *mapStore) Get(fp string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[fp]
	return &r, ok
}

func (s *mapStore) Put(r *Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[r.Fingerprint] = *r
	return nil
}

func (s *mapStore) Recovered() int { return 0 }

// TestMemoHitOnStoredResultReportsCached: a result the leader read from
// the store stays "cached" when a later submission reads it from the
// memo, so how a cell is counted does not depend on which submission
// reached the store first.
func TestMemoHitOnStoredResultReportsCached(t *testing.T) {
	job := tinyJob("gauss", "lrc")
	st := &mapStore{m: map[string]Result{}}
	st.Put(&Result{Fingerprint: job.Fingerprint(), App: job.App, Proto: job.Proto, Completed: true})

	r := New(1, st)
	ev := watch(r)
	for range 2 {
		if res := r.Do(context.Background(), job); !res.Cached {
			t.Fatal("stored result not marked cached")
		}
	}
	if c, d := ev.get(EventCached), ev.get(EventDedup); c != 2 || d != 0 {
		t.Fatalf("%d cached and %d dedup events, want 2 and 0", c, d)
	}
	if m := r.Meta(); m.Simulated != 0 || m.CacheHits != 1 {
		t.Fatalf("meta %+v: want 0 simulated, 1 store hit", m)
	}
}
