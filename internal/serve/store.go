package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dreamsim"
)

// On-disk job layout, one directory per job under <dir>/jobs/:
//
//	spec.json       submitted sweep spec (written once, atomically)
//	results.ndjson  one JSON line per finished unit, in unit order
//	ck-<unit>.snap  latest checkpoint of an in-flight unit
//	cancelled       marker: the job was cancelled
//	error           marker: the job failed; contents are the message
//
// Everything is crash-safe by construction: spec and checkpoints land
// via write-to-temp + rename, result lines are single appends, and
// loadJob truncates results.ndjson back to its longest valid prefix —
// a line torn by a kill mid-append simply re-runs its unit (from the
// unit's checkpoint when one survived).

// JobSpec is a submitted sweep: base parameters plus the node/task
// count grid. Empty grids default to the base parameters' own
// Nodes/Tasks — a single-cell sweep. Each cell runs BOTH
// reconfiguration scenarios (the paper's head-to-head), so a job has
// 2 × |node_counts| × |task_counts| units.
type JobSpec struct {
	Params     dreamsim.Params `json:"params"`
	NodeCounts []int           `json:"node_counts,omitempty"`
	TaskCounts []int           `json:"task_counts,omitempty"`
}

// UnmarshalJSON decodes a spec over DefaultParams, so a submission
// only names the parameters it changes — {"params":{"Tasks":2000}}
// is a complete spec. Unknown fields are rejected: a misspelled knob
// silently reverting to its default would corrupt a sweep.
func (s *JobSpec) UnmarshalJSON(data []byte) error {
	type plain JobSpec // shed the method to avoid recursion
	tmp := plain{Params: dreamsim.DefaultParams()}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tmp); err != nil {
		return err
	}
	*s = JobSpec(tmp)
	return nil
}

// grid fills the grid defaults and lowers the spec onto its units
// through dreamsim.GridUnits, the RunMatrix unit model, so one job
// reproduces the library sweep exactly.
func (s *JobSpec) grid() (units int, unit func(u int) dreamsim.Params, err error) {
	if len(s.NodeCounts) == 0 {
		s.NodeCounts = []int{s.Params.Nodes}
	}
	if len(s.TaskCounts) == 0 {
		s.TaskCounts = []int{s.Params.Tasks}
	}
	units, unit, err = dreamsim.GridUnits(s.Params, s.NodeCounts, s.TaskCounts)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: %w", err)
	}
	return units, unit, nil
}

// ResultLine is one line of results.ndjson.
type ResultLine struct {
	Unit     int             `json:"unit"`
	Nodes    int             `json:"nodes"`
	Tasks    int             `json:"tasks"`
	Scenario string          `json:"scenario"`
	Result   dreamsim.Result `json:"result"`
}

// Store is the jobs directory.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the serving state directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Job is one persisted sweep job.
type Job struct {
	ID    string
	Spec  JobSpec
	Units int
	// unit lowers a unit number onto its run parameters.
	unit func(u int) dreamsim.Params
	// Completed is the number of result lines safely on disk — always
	// a contiguous prefix of the unit sequence.
	Completed int
	// Cancelled and Err reflect the terminal markers.
	Cancelled bool
	Err       string

	dir string
}

// newJob fills spec's grid defaults and lowers it onto its units.
func newJob(id, dir string, spec JobSpec) (*Job, error) {
	units, unit, err := spec.grid()
	if err != nil {
		return nil, err
	}
	return &Job{ID: id, Spec: spec, Units: units, unit: unit, dir: dir}, nil
}

// validate reports the first unit of the job that cannot run. Units
// differ from the base parameters only in node count, task count and
// reconfiguration mode; no check reads the mode or couples the two
// counts, so the first cell of each grid row and the cells of the
// first row cover every count.
func (j *Job) validate() error {
	row := 2 * len(j.Spec.TaskCounts)
	for u := 0; u < j.Units; u += row {
		if err := j.unit(u).Validate(); err != nil {
			return err
		}
	}
	for u := 2; u < row; u += 2 {
		if err := j.unit(u).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// jobDir names are zero-padded so lexical order is submission order.
func (st *Store) jobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// CreateJob checks that every unit of the spec can run, then
// allocates the next job ID and persists the spec.
func (st *Store) CreateJob(spec JobSpec) (*Job, error) {
	j, err := newJob("", "", spec)
	if err != nil {
		return nil, err
	}
	if err := j.validate(); err != nil {
		return nil, err
	}
	ids, err := st.jobIDs()
	if err != nil {
		return nil, err
	}
	next := 1
	if len(ids) > 0 {
		last := ids[len(ids)-1]
		if _, err := fmt.Sscanf(last, "j%d", &next); err != nil {
			return nil, fmt.Errorf("serve: malformed job directory %q", last)
		}
		next++
	}
	j.ID = fmt.Sprintf("j%06d", next)
	j.dir = st.jobDir(j.ID)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(j.Spec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(j.dir, "spec.json"), blob); err != nil {
		return nil, err
	}
	return j, nil
}

// jobIDs lists existing job directories in ID order.
func (st *Store) jobIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// LoadJobs reads every persisted job in submission order, repairing
// each results file to its longest valid prefix — the restart path.
func (st *Store) LoadJobs() ([]*Job, error) {
	ids, err := st.jobIDs()
	if err != nil {
		return nil, err
	}
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		j, err := st.loadJob(id)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", id, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func (st *Store) loadJob(id string) (*Job, error) {
	dir := st.jobDir(id)
	blob, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, err
	}
	// The spec was checked for unknown fields when it was submitted;
	// decode it without that check, so a parameter removed since then
	// does not strand the job.
	type plain JobSpec
	tmp := plain{Params: dreamsim.DefaultParams()}
	if err := json.Unmarshal(blob, &tmp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	j, err := newJob(id, dir, JobSpec(tmp))
	if err != nil {
		return nil, err
	}
	if msg, err := os.ReadFile(filepath.Join(dir, "error")); err == nil {
		j.Err = string(msg)
	}
	if _, err := os.Stat(filepath.Join(dir, "cancelled")); err == nil {
		j.Cancelled = true
	}
	if err := j.repairResults(); err != nil {
		return nil, err
	}
	// An older build may have accepted a spec this one cannot run; fail
	// the job instead of resuming it.
	if j.Err == "" && !j.Cancelled && j.Completed < j.Units {
		if verr := j.validate(); verr != nil {
			if err := j.MarkError(verr.Error()); err != nil {
				return nil, err
			}
		}
	}
	// A kill between a unit's result append and its checkpoint delete
	// leaves a stale (harmless) checkpoint; sweep those now.
	for u := 0; u < j.Completed; u++ {
		j.DeleteCheckpoint(u)
	}
	return j, nil
}

// repairResults truncates results.ndjson to its longest valid prefix
// — complete lines whose unit numbers are exactly 0, 1, 2, … — and
// sets Completed. A torn tail line (kill mid-append) or any line out
// of sequence is discarded; its unit re-runs.
func (j *Job) repairResults() error {
	path := j.ResultsPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	valid := 0 // byte length of the valid prefix
	units := 0
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail
		}
		var line struct {
			Unit int `json:"unit"`
		}
		if json.Unmarshal(rest[:nl], &line) != nil || line.Unit != units {
			break
		}
		units++
		valid += nl + 1
		rest = rest[nl+1:]
	}
	if valid != len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return err
		}
	}
	j.Completed = units
	return nil
}

// ResultsPath is the job's NDJSON results file.
func (j *Job) ResultsPath() string { return filepath.Join(j.dir, "results.ndjson") }

// AppendResult appends one result line. The caller feeds units in
// order; the line plus newline lands in a single write so a kill
// leaves at worst one torn tail line for repairResults.
func (j *Job) AppendResult(line ResultLine) error {
	if line.Unit != j.Completed {
		return fmt.Errorf("serve: appending unit %d, next is %d", line.Unit, j.Completed)
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(j.ResultsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(blob, '\n'))
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return cerr
	}
	j.Completed++
	return nil
}

func (j *Job) checkpointPath(unit int) string {
	return filepath.Join(j.dir, fmt.Sprintf("ck-%d.snap", unit))
}

// WriteCheckpoint atomically replaces unit's checkpoint.
func (j *Job) WriteCheckpoint(unit int, snap []byte) error {
	return writeFileAtomic(j.checkpointPath(unit), snap)
}

// ReadCheckpoint returns unit's checkpoint bytes, nil when none.
func (j *Job) ReadCheckpoint(unit int) []byte {
	data, err := os.ReadFile(j.checkpointPath(unit))
	if err != nil {
		return nil
	}
	return data
}

// DeleteCheckpoint removes unit's checkpoint; called only after the
// unit's result line is on disk, so a kill between the two leaves a
// stale checkpoint (harmless — the unit is already complete) rather
// than a lost unit.
func (j *Job) DeleteCheckpoint(unit int) {
	os.Remove(j.checkpointPath(unit))
}

// MarkCancelled persists the cancelled marker.
func (j *Job) MarkCancelled() error {
	j.Cancelled = true
	return writeFileAtomic(filepath.Join(j.dir, "cancelled"), nil)
}

// MarkError persists the failure marker.
func (j *Job) MarkError(msg string) error {
	j.Err = msg
	return writeFileAtomic(filepath.Join(j.dir, "error"), []byte(msg))
}

// writeFileAtomic writes via a temp file + rename + directory sync so
// a kill never leaves a half-written file under the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
