// Package serve is the checkpointing sweep service behind
// cmd/dreamserve: an HTTP job queue that accepts scenario specs and
// sweep matrices, runs their units on the exec worker pool behind a
// token-bucket submission limiter, streams incremental per-cell
// results as NDJSON, checkpoints in-flight units every N processed
// events, and — because every piece of job state is crash-safe on
// disk — resumes interrupted jobs from their latest checkpoints on
// restart. A resumed job's results file ends up byte-identical to an
// uninterrupted run's (the kill-and-recover harness in cmd/dreamserve
// pins this through repeated SIGKILLs).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dreamsim"
	"dreamsim/internal/exec"
)

// Config configures a Server.
type Config struct {
	// Dir is the state directory (jobs land under Dir/jobs).
	Dir string
	// Workers bounds how many sweep units run concurrently; 0 means
	// dreamsim.DefaultParallelism().
	Workers int
	// CheckpointEvents is the checkpoint cadence: a unit pauses and
	// persists a snapshot every this-many processed simulation events.
	// 0 means DefaultCheckpointEvents.
	CheckpointEvents uint64
	// RateCapacity and RateRefillPerSec shape the submission token
	// bucket; capacity 0 disables limiting.
	RateCapacity     int
	RateRefillPerSec float64
	// Now is the limiter clock (tests inject a fake); nil = time.Now.
	Now func() time.Time
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// DefaultCheckpointEvents is the default checkpoint cadence. At
// typical event costs this checkpoints every few hundred
// milliseconds of simulation work — cheap enough to be invisible,
// frequent enough that a kill loses very little progress.
const DefaultCheckpointEvents = 200_000

// maxSpecBytes caps a submitted job spec's request body. A real spec —
// parameters, grids, an inline scenario or fault script — takes a few
// kilobytes.
const maxSpecBytes = 1 << 20

// Server is the job-queue service. One job runs at a time (its units
// fan out over the worker pool); submissions queue in order.
type Server struct {
	cfg     Config
	store   *Store
	limiter *Limiter

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*jobState
	order   []string
	pending []*jobState
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// jobState is a Job plus its in-memory scheduling state.
type jobState struct {
	mu     sync.Mutex
	job    *Job
	status string // "queued", "running", "done", "failed", "cancelled"
	// buffered holds finished units waiting for every earlier unit to
	// land, so results.ndjson is written strictly in unit order and
	// stays byte-identical whatever the worker interleaving.
	buffered map[int]ResultLine
	cancel   atomic.Bool
}

// errCancelled aborts a job's remaining units after a cancel request.
var errCancelled = errors.New("serve: job cancelled")

// New opens the state directory, repairs and re-queues interrupted
// jobs, and starts the dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = dreamsim.DefaultParallelism()
	}
	if cfg.CheckpointEvents == 0 {
		cfg.CheckpointEvents = DefaultCheckpointEvents
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		limiter: NewLimiter(cfg.RateCapacity, cfg.RateRefillPerSec, cfg.Now),
		jobs:    make(map[string]*jobState),
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())

	jobs, err := store.LoadJobs()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		js := &jobState{job: j, buffered: make(map[int]ResultLine)}
		switch {
		case j.Err != "":
			js.status = "failed"
		case j.Cancelled:
			js.status = "cancelled"
		case j.Completed == j.Units:
			js.status = "done"
		default:
			js.status = "queued"
		}
		s.jobs[j.ID] = js
		s.order = append(s.order, j.ID)
		if js.status == "queued" {
			s.pending = append(s.pending, js)
			s.cfg.Logf("resuming job %s (%d/%d units done)", j.ID, j.Completed, j.Units)
		}
	}

	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Close stops the dispatcher. A running job checkpoints its in-flight
// units and stays "queued" on disk, ready for the next restart.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// dispatch runs queued jobs one at a time in submission order.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		js := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runJob(js)
	}
}

// runJob executes one job's units on the worker pool.
func (s *Server) runJob(js *jobState) {
	if js.cancel.Load() {
		s.finishJob(js, errCancelled)
		return
	}
	js.setStatus("running")
	s.cfg.Logf("job %s running (%d units, %d workers)", js.job.ID, js.job.Units, s.cfg.Workers)
	err := exec.DoWorkers(s.ctx, s.cfg.Workers, js.job.Units,
		func(ctx context.Context, _, u int) error {
			return s.runUnit(ctx, js, u)
		})
	s.finishJob(js, err)
}

// finishJob applies the job's terminal (or re-queueable) state.
func (s *Server) finishJob(js *jobState, err error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	switch {
	case js.job.Completed == js.job.Units:
		js.status = "done"
		s.cfg.Logf("job %s done", js.job.ID)
	case js.cancel.Load() || errors.Is(err, errCancelled):
		if merr := js.job.MarkCancelled(); merr != nil {
			s.cfg.Logf("job %s: persisting cancel marker: %v", js.job.ID, merr)
		}
		js.status = "cancelled"
		s.cfg.Logf("job %s cancelled after %d/%d units", js.job.ID, js.job.Completed, js.job.Units)
	case errors.Is(err, context.Canceled):
		// Server shutdown mid-job: checkpoints are on disk and the
		// job directory carries no terminal marker, so the next
		// restart re-queues and resumes it.
		js.status = "queued"
	case err != nil:
		if merr := js.job.MarkError(err.Error()); merr != nil {
			s.cfg.Logf("job %s: persisting error marker: %v", js.job.ID, merr)
		}
		js.status = "failed"
		s.cfg.Logf("job %s failed: %v", js.job.ID, err)
	default:
		// No error but units missing: results were buffered behind a
		// unit that never landed — impossible unless a unit was
		// skipped; surface loudly.
		if merr := js.job.MarkError("internal: job finished with missing units"); merr != nil {
			s.cfg.Logf("job %s: persisting error marker: %v", js.job.ID, merr)
		}
		js.status = "failed"
	}
}

// interrupted reports whether the unit should stop at the next tick
// boundary: job cancelled or server shutting down.
func (js *jobState) interrupted(ctx context.Context) bool {
	return js.cancel.Load() || ctx.Err() != nil
}

// runUnit drives one sweep unit to completion, checkpointing every
// CheckpointEvents processed events, resuming from the unit's latest
// checkpoint when one exists.
func (s *Server) runUnit(ctx context.Context, js *jobState, u int) error {
	js.mu.Lock()
	persisted := u < js.job.Completed
	_, inFlight := js.buffered[u]
	js.mu.Unlock()
	if persisted || inFlight {
		return nil
	}
	if js.interrupted(ctx) {
		if err := ctx.Err(); err != nil {
			return err
		}
		return errCancelled
	}

	p := js.job.unit(u)
	var run *dreamsim.CheckpointedRun
	if snap := js.job.ReadCheckpoint(u); snap != nil {
		r, err := dreamsim.ResumeRun(p, snap)
		if err == nil {
			run = r
			s.cfg.Logf("job %s unit %d: resumed at %d events", js.job.ID, u, r.Processed())
		} else {
			// A corrupt or version-skewed checkpoint costs a rerun,
			// never the job.
			s.cfg.Logf("job %s unit %d: checkpoint unusable (%v); rerunning", js.job.ID, u, err)
		}
	}
	if run == nil {
		r, err := dreamsim.StartRun(p)
		if err != nil {
			return fmt.Errorf("unit %d: %w", u, err)
		}
		run = r
	}

	for {
		target := run.Processed() + s.cfg.CheckpointEvents
		done := run.RunUntil(func(_ int64, processed uint64) bool {
			return processed >= target || js.interrupted(ctx)
		})
		if done {
			break
		}
		snap, err := run.Snapshot()
		if err != nil {
			return fmt.Errorf("unit %d: %w", u, err)
		}
		if err := js.job.WriteCheckpoint(u, snap); err != nil {
			return fmt.Errorf("unit %d: %w", u, err)
		}
		if js.cancel.Load() {
			return errCancelled
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	res, err := run.Finish()
	if err != nil {
		return fmt.Errorf("unit %d: %w", u, err)
	}
	scenario := "full"
	if p.PartialReconfig {
		scenario = "partial"
	}
	return js.complete(ResultLine{
		Unit:     u,
		Nodes:    p.Nodes,
		Tasks:    p.Tasks,
		Scenario: scenario,
		Result:   res,
	})
}

// complete buffers a finished unit and flushes the contiguous prefix
// to the results file; each flushed unit's checkpoint is deleted only
// after its line is on disk.
func (js *jobState) complete(line ResultLine) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.buffered[line.Unit] = line
	for {
		next, ok := js.buffered[js.job.Completed]
		if !ok {
			return nil
		}
		if err := js.job.AppendResult(next); err != nil {
			return err
		}
		delete(js.buffered, next.Unit)
		js.job.DeleteCheckpoint(next.Unit)
	}
}

func (js *jobState) setStatus(st string) {
	js.mu.Lock()
	js.status = st
	js.mu.Unlock()
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Units     int    `json:"units"`
	Completed int    `json:"completed"`
	Error     string `json:"error,omitempty"`
}

func (js *jobState) snapshotStatus() JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	return JobStatus{
		ID:        js.job.ID,
		Status:    js.status,
		Units:     js.job.Units,
		Completed: js.job.Completed,
		Error:     js.job.Err,
	}
}

// Handler returns the HTTP API:
//
//	POST /api/v1/jobs              submit a JobSpec; 429 when rate-limited
//	GET  /api/v1/jobs              list job statuses
//	GET  /api/v1/jobs/{id}         one job's status
//	GET  /api/v1/jobs/{id}/results stream results as NDJSON (?follow=1
//	                               keeps streaming until the job ends)
//	POST /api/v1/jobs/{id}/cancel  stop a job at its next tick boundary
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.Allow() {
		httpError(w, http.StatusTooManyRequests, "submission rate limit exceeded; retry later")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "parsing job spec: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	job, err := s.store.CreateJob(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	js := &jobState{job: job, status: "queued", buffered: make(map[int]ResultLine)}
	s.jobs[job.ID] = js
	s.order = append(s.order, job.ID)
	s.pending = append(s.pending, js)
	s.cond.Signal()
	// Report the state as of acceptance ("queued"), not a racy later
	// read — the dispatcher may already be running the job.
	writeJSON(w, http.StatusAccepted, JobStatus{
		ID: job.ID, Status: "queued", Units: job.Units, Completed: job.Completed,
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id].snapshotStatus())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

// lookup finds a job by the request's {id}.
func (s *Server) lookup(r *http.Request) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r)
	if js == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, js.snapshotStatus())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r)
	if js == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	js.cancel.Store(true)
	// A queued job never reaches the dispatcher's cancel check until
	// it is dequeued, which may be far in the future; settle it now.
	js.mu.Lock()
	if js.status == "queued" {
		if err := js.job.MarkCancelled(); err == nil {
			js.status = "cancelled"
		}
	}
	js.mu.Unlock()
	writeJSON(w, http.StatusOK, js.snapshotStatus())
}

// terminal reports whether the job will append no further results.
func terminal(st string) bool {
	return st == "done" || st == "failed" || st == "cancelled"
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r)
	if js == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var offset int64
	for {
		st := js.snapshotStatus()
		n, err := s.copyResults(w, js, offset)
		if err != nil {
			return // client gone or file error; nothing useful to send
		}
		offset += n
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		if !follow || terminal(st.Status) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		//lint:detrand follow-mode polls the results file on the host clock; no simulation state depends on it
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// copyResults streams the results file from offset; the file only
// ever grows by whole appended lines, so reads at any moment see a
// valid NDJSON prefix.
func (s *Server) copyResults(w http.ResponseWriter, js *jobState, offset int64) (int64, error) {
	f, err := os.Open(js.job.ResultsPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, 0); err != nil {
		return 0, err
	}
	var n int64
	buf := make([]byte, 64<<10)
	for {
		k, rerr := f.Read(buf)
		if k > 0 {
			if _, werr := w.Write(buf[:k]); werr != nil {
				return n, werr
			}
			n += int64(k)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return n, nil
			}
			return n, rerr
		}
	}
}
