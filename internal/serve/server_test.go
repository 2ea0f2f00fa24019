package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer starts a Server over a fresh directory plus an HTTP
// front end; both are torn down with the test.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Dir:              t.TempDir(),
		Workers:          2,
		CheckpointEvents: 1 << 30, // effectively off unless a test dials it down
		Logf:             t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func submit(t *testing.T, hs *httptest.Server, spec JobSpec) JobStatus {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func jobStatus(t *testing.T, hs *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(hs.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job reaches a terminal status.
func waitTerminal(t *testing.T, hs *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := jobStatus(t, hs, id)
		if terminal(st.Status) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkGolden compares got against testdata/api/<name>, regenerating
// with DREAMSIM_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "api", name)
	if os.Getenv("DREAMSIM_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with DREAMSIM_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden fixture:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// do issues a request and returns status code + body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// TestAPIGolden pins the whole request/response surface — submit,
// status, list, results, cancel, and their error shapes — against
// golden fixtures.
func TestAPIGolden(t *testing.T) {
	_, hs := newTestServer(t, nil)

	// Submit: sparse spec over defaults; accepted as queued.
	code, body := do(t, "POST", hs.URL+"/api/v1/jobs",
		`{"params":{"Nodes":10,"Configs":8,"Tasks":40,"TaskTimeRange":[100,2000],"Seed":7}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	checkGolden(t, "submit_accepted.json", body)

	// Submit: unknown field rejected.
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs", `{"params":{"Taks":1}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad submit: HTTP %d", code)
	}
	checkGolden(t, "submit_unknown_field.json", body)

	// Submit: invalid grid rejected.
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs", `{"node_counts":[0]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad grid: HTTP %d", code)
	}
	checkGolden(t, "submit_bad_grid.json", body)

	// Submit: a spec no unit could run is rejected up front, instead
	// of being queued to panic or fail in its workers.
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs", `{"params":{"Nodes":4611686018427387904,"Tasks":10}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unrunnable spec: HTTP %d", code)
	}
	checkGolden(t, "submit_unrunnable.json", body)
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs", `{"params":{"Placement":"bogus"}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad placement: HTTP %d", code)
	}
	checkGolden(t, "submit_bad_placement.json", body)

	// Status: unknown job is a structured 404.
	code, body = do(t, "GET", hs.URL+"/api/v1/jobs/zzz", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown status: HTTP %d", code)
	}
	checkGolden(t, "status_missing.json", body)

	// Run the job to completion; its terminal status is deterministic.
	st := waitTerminal(t, hs, "j000001")
	if st.Status != "done" {
		t.Fatalf("job ended %q (%s)", st.Status, st.Error)
	}
	code, body = do(t, "GET", hs.URL+"/api/v1/jobs/j000001", "")
	if code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	checkGolden(t, "status_done.json", body)

	code, body = do(t, "GET", hs.URL+"/api/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	checkGolden(t, "list.json", body)

	// Results: the NDJSON stream is byte-deterministic given the seed.
	code, body = do(t, "GET", hs.URL+"/api/v1/jobs/j000001/results", "")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	checkGolden(t, "results.ndjson", body)

	// Cancel: unknown job 404s; cancelling a finished job is a no-op
	// that reports the terminal status.
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs/zzz/cancel", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown cancel: HTTP %d", code)
	}
	checkGolden(t, "cancel_missing.json", body)
	code, body = do(t, "POST", hs.URL+"/api/v1/jobs/j000001/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	checkGolden(t, "cancel_done.json", body)
}

// TestResultsFollowStreams pins that ?follow=1 delivers every line
// and terminates once the job does — the streamed body must equal the
// results file byte for byte.
func TestResultsFollowStreams(t *testing.T) {
	s, hs := newTestServer(t, func(cfg *Config) {
		cfg.CheckpointEvents = 500 // force pauses so the stream has middles
	})
	spec := testSpec([]int{10, 14}, nil)
	st := submit(t, hs, spec)

	type streamed struct {
		body []byte
		err  error
	}
	ch := make(chan streamed, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/api/v1/jobs/" + st.ID + "/results?follow=1")
		if err != nil {
			ch <- streamed{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		ch <- streamed{body, err}
	}()

	final := waitTerminal(t, hs, st.ID)
	if final.Status != "done" {
		t.Fatalf("job ended %q (%s)", final.Status, final.Error)
	}
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	onDisk, err := os.ReadFile(s.jobs[st.ID].job.ResultsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.body, onDisk) {
		t.Fatalf("followed stream (%d bytes) != results file (%d bytes)", len(got.body), len(onDisk))
	}
	if lines := bytes.Count(onDisk, []byte("\n")); lines != final.Units {
		t.Fatalf("results has %d lines, want %d", lines, final.Units)
	}
}

// TestSubmitRateLimited pins the 429 path and the refill recovery,
// on a stepped fake clock.
func TestSubmitRateLimited(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	_, hs := newTestServer(t, func(cfg *Config) {
		cfg.RateCapacity = 2
		cfg.RateRefillPerSec = 1
		cfg.Now = clk.now
	})
	spec, _ := json.Marshal(testSpec(nil, nil))
	for i := 0; i < 2; i++ {
		code, body := do(t, "POST", hs.URL+"/api/v1/jobs", string(spec))
		if code != http.StatusAccepted {
			t.Fatalf("burst submit %d: HTTP %d: %s", i, code, body)
		}
	}
	code, body := do(t, "POST", hs.URL+"/api/v1/jobs", string(spec))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: HTTP %d", code)
	}
	checkGolden(t, "submit_limited.json", body)

	clk.advance(time.Second)
	if code, body := do(t, "POST", hs.URL+"/api/v1/jobs", string(spec)); code != http.StatusAccepted {
		t.Fatalf("post-refill submit: HTTP %d: %s", code, body)
	}
}

// TestSubmitRejectsOversizedBody: a spec body beyond maxSpecBytes is
// answered 413 without creating a job.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	_, hs := newTestServer(t, nil)
	body := `{"params":{"ScenarioText":"` + strings.Repeat("x", maxSpecBytes) + `"}}`
	code, blob := do(t, "POST", hs.URL+"/api/v1/jobs", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: HTTP %d: %s", code, blob)
	}
	if !strings.Contains(string(blob), "exceeds") {
		t.Fatalf("oversized submit error lacks the limit: %s", blob)
	}
	if code, blob := do(t, "GET", hs.URL+"/api/v1/jobs", ""); code != http.StatusOK || strings.Contains(string(blob), `"id"`) {
		t.Fatalf("oversized submit created a job: HTTP %d: %s", code, blob)
	}
}

// TestRestartFailsUnrunnableJob: a job directory holding a spec that
// an older build accepted but this one cannot run loads on restart and
// ends failed with the validation error, and the server keeps serving.
func TestRestartFailsUnrunnableJob(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(nil, nil)
	spec.Params.Nodes = 1 << 62
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, "jobs", "j000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "spec.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, func(cfg *Config) { cfg.Dir = dir })
	st := jobStatus(t, hs, "j000001")
	if st.Status != "failed" || !strings.Contains(st.Error, "node count") {
		t.Fatalf("unrunnable job reloaded as %q (%s)", st.Status, st.Error)
	}
	marker, err := os.ReadFile(filepath.Join(jobDir, "error"))
	if err != nil || string(marker) != st.Error {
		t.Fatalf("error marker %q (%v), want %q", marker, err, st.Error)
	}
	next := submit(t, hs, testSpec(nil, nil))
	if got := waitTerminal(t, hs, next.ID); got.Status != "done" {
		t.Fatalf("job after the failed one ended %q (%s)", got.Status, got.Error)
	}
}

// TestConcurrentSubmitters races many submitters against one pool —
// meaningful under -race; every job must still land complete, with
// distinct IDs, all results on disk.
func TestConcurrentSubmitters(t *testing.T) {
	_, hs := newTestServer(t, nil)
	const submitters = 6
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec(nil, nil)
			spec.Params.Seed = uint64(100 + i)
			blob, _ := json.Marshal(spec)
			resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if seen[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		seen[id] = true
		if st := waitTerminal(t, hs, id); st.Status != "done" || st.Completed != st.Units {
			t.Fatalf("job %s ended %q %d/%d (%s)", id, st.Status, st.Completed, st.Units, st.Error)
		}
	}
}

// TestCancelStopsJob submits a long job, cancels it mid-run, and
// checks the terminal state is persisted.
func TestCancelStopsJob(t *testing.T) {
	s, hs := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.CheckpointEvents = 2000
	})
	spec := testSpec(nil, nil)
	spec.Params.Tasks = 200000 // long enough that cancel wins the race
	st := submit(t, hs, spec)

	deadline := time.Now().Add(time.Minute)
	for jobStatus(t, hs, st.ID).Status != "running" {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _ := do(t, "POST", hs.URL+"/api/v1/jobs/"+st.ID+"/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	final := waitTerminal(t, hs, st.ID)
	if final.Status != "cancelled" {
		t.Fatalf("job ended %q, want cancelled", final.Status)
	}
	if _, err := os.Stat(filepath.Join(s.jobs[st.ID].job.dir, "cancelled")); err != nil {
		t.Fatalf("cancelled marker missing: %v", err)
	}
	// The terminal state must survive a restart un-requeued.
	s2, err := New(Config{Dir: s.cfg.Dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.jobs[st.ID].snapshotStatus().Status; got != "cancelled" {
		t.Fatalf("reloaded as %q, want cancelled", got)
	}
}

// TestResumeAfterShutdown is the in-process half of the kill story
// (cmd/dreamserve's harness does the SIGKILL half): a sweep
// interrupted by Server.Close mid-run and finished by later server
// generations must produce a results file byte-identical to one
// produced by an uninterrupted server.
func TestResumeAfterShutdown(t *testing.T) {
	spec := testSpec([]int{10, 14}, []int{1500, 3000})
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one server generation, never interrupted.
	refDir := t.TempDir()
	ref, err := New(Config{Dir: refDir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(ref.Handler())
	resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, hs, "j000001"); st.Status != "done" {
		t.Fatalf("reference job ended %q (%s)", st.Status, st.Error)
	}
	hs.Close()
	ref.Close()
	want, err := os.ReadFile(filepath.Join(refDir, "jobs", "j000001", "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: submit, then cycle server generations — each Close
	// lands mid-run until the job eventually finishes.
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 2, CheckpointEvents: 5000, Logf: t.Logf}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs = httptest.NewServer(s.Handler())
	resp, err = http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hs.Close()

	generations := 1
	for {
		time.Sleep(30 * time.Millisecond)
		s.Close()
		st := s.jobs["j000001"].snapshotStatus()
		if st.Status == "done" {
			break
		}
		if terminal(st.Status) {
			t.Fatalf("interrupted job ended %q (%s)", st.Status, st.Error)
		}
		if generations > 200 {
			t.Fatal("job made no progress across generations")
		}
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		generations++
	}
	t.Logf("finished after %d server generations", generations)

	got, err := os.ReadFile(filepath.Join(dir, "jobs", "j000001", "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed results (%d bytes) differ from uninterrupted reference (%d bytes)", len(got), len(want))
	}
}
