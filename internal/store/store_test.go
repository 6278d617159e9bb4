package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

var _ runner.ResultStore = (*Store)(nil)

func fakeResult(fp string, cycles uint64) *runner.Result {
	return &runner.Result{
		Fingerprint: fp,
		App:         "gauss",
		Scale:       "tiny",
		Proto:       "lrc",
		ExecCycles:  cycles,
		Completed:   true,
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fakeResult("fp-1", 1234)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("fp-1")
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Segments != 1 || st.DroppedLines != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRefusesFailedResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := &runner.Result{Fingerprint: "abc", Failure: "panic: boom"}
	if err := s.Put(bad); err == nil {
		t.Fatal("failed result was stored")
	}
	if _, ok := s.Get("abc"); ok {
		t.Fatal("failed result retrievable")
	}
}

func TestLatestPutWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fakeResult("fp-1", 1))
	s.Put(fakeResult("fp-1", 2))
	if got, _ := s.Get("fp-1"); got.ExecCycles != 2 {
		t.Fatalf("got cycles %d, want 2", got.ExecCycles)
	}
	st := s.Stats()
	if st.Entries != 1 || st.LiveBytes >= st.TotalBytes {
		t.Fatalf("superseded line not accounted dead: %+v", st)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get("fp-1"); got == nil || got.ExecCycles != 2 {
		t.Fatal("newest-wins lost across reopen")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fakeResult(fmt.Sprintf("fp-%02d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("no rotation at tiny threshold: %+v", st)
	}
	for i := 0; i < 20; i++ {
		if got, ok := s.Get(fmt.Sprintf("fp-%02d", i)); !ok || got.ExecCycles != uint64(i) {
			t.Fatalf("entry %d unreadable after rotation", i)
		}
	}
	s.Close()
	s2, err := Open(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("reopened entries = %d, want 20", s2.Len())
	}
}

// TestGarbageRecoveryAndCompaction is the corrupt-line discipline end to
// end: a store damaged four ways — binary garbage, wrong-shape JSON, a
// fingerprint-less record, and a torn tail — keeps serving every intact
// entry, reports exactly how many lines it dropped, and compaction
// round-trips the survivors into a single clean segment.
func TestGarbageRecoveryAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*runner.Result{}
	for i := 0; i < 8; i++ {
		fp := fmt.Sprintf("fp-%02d", i)
		want[fp] = fakeResult(fp, uint64(100+i))
		if err := s.Put(want[fp]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject garbage into the newest segment: three corrupt complete
	// lines plus a torn tail.
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, segName(ids[len(ids)-1]))
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\x00\x01 not json at all\n")
	f.WriteString("{\"weird\":true}\n")     // parses but has no fingerprint
	f.WriteString("[1,2,3]\n")              // wrong JSON shape
	f.WriteString("{\"fp\":\"torn-entry\"") // torn tail, no newline
	f.Close()

	s2, err := Open(dir, WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Recovered(); got != 4 {
		t.Fatalf("dropped lines = %d, want 4", got)
	}
	if st := s2.Stats(); st.DroppedLines != 4 || st.Entries != 8 {
		t.Fatalf("stats after damage: %+v", st)
	}
	for fp, w := range want {
		got, ok := s2.Get(fp)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("entry %s not served after recovery", fp)
		}
	}
	// The sealed torn tail must not fuse with a fresh append.
	extra := fakeResult("fp-extra", 999)
	if err := s2.Put(extra); err != nil {
		t.Fatal(err)
	}

	// Pre-compaction snapshot: the dead-byte accounting a background
	// compaction trigger would key on, plus the per-handle traffic
	// counters (8 hits so far on this handle, 1 append, no misses).
	pre := s2.Stats()
	if pre.DeadBytes() <= 0 || pre.DeadRatio() <= 0 || pre.DeadRatio() >= 1 {
		t.Fatalf("damaged store shows no dead bytes: %+v", pre)
	}
	if pre.Appends != 1 || pre.Lookups != 8 || pre.Misses != 0 {
		t.Fatalf("pre-compaction traffic counters: %+v", pre)
	}

	st, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.Entries != 9 || st.LiveBytes != st.TotalBytes || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if st.DeadBytes() != 0 || st.DeadRatio() != 0 {
		t.Fatalf("compaction left dead bytes: %+v", st)
	}
	for fp, w := range want {
		got, ok := s2.Get(fp)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("entry %s lost by compaction", fp)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen once more: the compacted store is clean (nothing dropped)
	// and byte-stable.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Recovered(); got != 0 {
		t.Fatalf("compacted store dropped %d lines on reload", got)
	}
	if s3.Len() != 9 {
		t.Fatalf("compacted entries = %d, want 9", s3.Len())
	}
	got, _ := s3.Get("fp-extra")
	if !reflect.DeepEqual(got, extra) {
		t.Fatal("post-seal append lost")
	}
}

// TestServesRunnerResultsByteIdentically drives the store through the
// runner exactly as the daemon does and requires a warm reopen to serve
// byte-identical results with zero simulations.
func TestServesRunnerResultsByteIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := config.Default(4)
	cfg.CacheSize = 2 << 10
	cfg.Seed = 1
	jobs := []runner.Job{
		{App: "gauss", Scale: apps.Tiny, Proto: "sc", Cfg: cfg},
		{App: "gauss", Scale: apps.Tiny, Proto: "lrc", Cfg: cfg},
		{App: "fft", Scale: apps.Tiny, Proto: "erc", Cfg: cfg},
	}

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := runner.New(4, cold)
	first := r1.DoAll(context.Background(), jobs)
	if m := r1.Meta(); m.Simulated != 3 || m.CacheHits != 0 {
		t.Fatalf("cold meta: %+v", m)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	r2 := runner.New(4, warm)
	second := r2.DoAll(context.Background(), jobs)
	if m := r2.Meta(); m.Simulated != 0 || m.CacheHits != 3 {
		t.Fatalf("warm meta: %+v", m)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Fatalf("job %d not marked cached", i)
		}
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Fatalf("job %d: stored result differs:\n%s\n%s", i, a, b)
		}
		if first[i].Fingerprint != jobs[i].Fingerprint() {
			t.Fatalf("job %d: fingerprint drifted", i)
		}
	}
}

func TestOpenIgnoresAbandonedCompactionTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 || s.Recovered() != 0 {
		t.Fatalf("temp file leaked into the store: %+v", s.Stats())
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatal("abandoned temp file not removed")
	}
	names, _ := os.ReadDir(dir)
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", n.Name())
		}
	}
}

func TestSweepRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sweeps(); len(got) != 0 {
		t.Fatalf("fresh store has sweeps: %v", got)
	}
	specs := []json.RawMessage{
		json.RawMessage(`{"apps":["gauss"],"scale":"tiny"}`),
		json.RawMessage(`{"targets":["table2"],"procs":8}`),
	}
	if err := s.SaveSweeps(specs); err != nil {
		t.Fatal(err)
	}
	// A save replaces, not appends: drop the second entry and re-save.
	if err := s.SaveSweeps(specs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Sweeps()
	if len(got) != 1 || !reflect.DeepEqual(got[0], specs[0]) {
		t.Fatalf("reloaded registry %s, want %s", got, specs[:1])
	}
	names, _ := os.ReadDir(dir)
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", n.Name())
		}
	}
}

func TestSweepRegistryCorruptSidecarDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, sweepsName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Sweeps(); got != nil {
		t.Fatalf("corrupt sidecar yielded sweeps: %v", got)
	}
	if s.Recovered() == 0 {
		t.Fatal("corrupt sidecar not counted as recovered garbage")
	}
}

// TestTwoHandlesInterleavedPuts is the multi-process contract: two
// handles on one directory (two paperbench runs sharing a -cache)
// interleave their appends, each serves its own entries meanwhile, and
// a reopen indexes all of them. The rotating case has both handles roll
// into the same next segment.
func TestTwoHandlesInterleavedPuts(t *testing.T) {
	for _, segBytes := range []int64{DefaultSegmentBytes, 256} {
		t.Run(fmt.Sprintf("seg=%d", segBytes), func(t *testing.T) {
			dir := t.TempDir()
			a, err := Open(dir, WithSegmentBytes(segBytes))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir, WithSegmentBytes(segBytes))
			if err != nil {
				t.Fatal(err)
			}
			handles := []*Store{a, b}
			want := map[string]*runner.Result{}
			for i := 0; i < 4; i++ {
				for h, s := range handles {
					r := fakeResult(fmt.Sprintf("fp-%d-%d", h, i), uint64(10*h+i))
					want[r.Fingerprint] = r
					if err := s.Put(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			for fp, w := range want {
				h := int(w.ExecCycles / 10)
				if got, ok := handles[h].Get(fp); !ok || !reflect.DeepEqual(got, w) {
					t.Fatalf("handle %d serves %+v for %s", h, got, fp)
				}
			}
			if err := errors.Join(a.Close(), b.Close()); err != nil {
				t.Fatal(err)
			}

			s, err := Open(dir, WithSegmentBytes(segBytes))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Len() != len(want) || s.Recovered() != 0 {
				t.Fatalf("reopen: %d entries, %d dropped lines; want %d, 0", s.Len(), s.Recovered(), len(want))
			}
			for fp, w := range want {
				if got, ok := s.Get(fp); !ok || !reflect.DeepEqual(got, w) {
					t.Fatalf("entry %s lost after reopen", fp)
				}
			}
		})
	}
}

func TestOpenRefusesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Fatalf("Open on a regular file: %v", err)
	}
}

// FuzzSegmentRecovery feeds arbitrary bytes to the load path as the only
// segment. Open must not fail or panic, must account for every byte on
// disk, every indexed fingerprint must read back as itself, and an
// append after whatever tail the bytes left must survive a reopen
// alongside every fingerprint indexed before it. (Not necessarily with
// the same line: sealing appends a newline after a torn tail rather than
// cutting it, since it may be another process's append in flight, so a
// tail that is a whole line bar its newline is indexed on the next Open.)
func FuzzSegmentRecovery(f *testing.F) {
	line := func(fp string, cycles uint64) string {
		b, err := json.Marshal(fakeResult(fp, cycles))
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	f.Add([]byte(line("fp-a", 1) + line("fp-b", 2)[:20]))                      // torn tail
	f.Add([]byte(line("fp-a", 1) + "\x00\x01 not json\n" + line("fp-b", 2)))   // garbage line
	f.Add([]byte(line("fp-a", 1) + line("fp-a", 2) + line("fp-b", 3)))         // duplicate fingerprint
	f.Add([]byte(line("fp-a", 1) + strings.TrimSuffix(line("fp-a", 2), "\n"))) // whole line, newline lost
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || s.Stats().TotalBytes != fi.Size() {
			t.Fatalf("TotalBytes %d does not account for the segment on disk (%v, %v)", s.Stats().TotalBytes, fi, err)
		}
		intact := func(s *Store, fp string) *runner.Result {
			got, ok := s.Get(fp)
			if !ok || got.Fingerprint != fp {
				t.Fatalf("indexed fingerprint %q reads back as %+v", fp, got)
			}
			return got
		}
		var before []string
		for fp := range s.idx {
			intact(s, fp)
			before = append(before, fp)
		}
		probe := fakeResult("fuzz-probe", 7)
		if err := s.Put(probe); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got := intact(s2, probe.Fingerprint); !reflect.DeepEqual(got, probe) {
			t.Fatalf("append after the loaded tail lost: %+v", got)
		}
		for _, fp := range before {
			intact(s2, fp)
		}
	})
}
