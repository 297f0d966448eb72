package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The coordinator's resumable journal: a directory holding one
// plan-identity file plus one framed spool file per completed task.
// Every result is spooled (write-to-temp, rename) before the task is
// marked done, so at any kill point the directory is a consistent
// prefix of the truth: a restarted coordinator re-loads exactly the
// completed set and finishes the remainder without re-running done
// tasks. A torn or tampered spool file fails its frame check and is
// treated as not-done — re-executed, never merged corrupt.

// journalPlanFile records the run identity a journal belongs to.
const journalPlanFile = "plan.json"

// journalVersion versions the journal layout (plan.json plus framed
// spool files) apart from the wire protocol.
const journalVersion = "1"

// journalMeta is the contents of plan.json.
type journalMeta struct {
	Version  string `json:"version"`
	Kind     string `json:"kind"`
	PlanHash string `json:"planHash"`
	NumTasks int    `json:"numTasks"`
}

// journal persists completed results under dir.
type journal struct {
	dir string
}

// openJournal creates (or re-opens) a journal directory for the given
// run identity. Re-opening verifies the identity: resuming a journal
// written by a different plan is an error, not a silent mis-merge.
func openJournal(dir, kind, planHash string, numTasks int) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	meta := journalMeta{Version: journalVersion, Kind: kind, PlanHash: planHash, NumTasks: numTasks}
	path := filepath.Join(dir, journalPlanFile)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		b, err := json.Marshal(meta)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(path, writeBytes(b)); err != nil {
			return nil, fmt.Errorf("dist: journal: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("dist: journal: %w", err)
	default:
		var got journalMeta
		if err := json.Unmarshal(raw, &got); err != nil {
			return nil, fmt.Errorf("dist: journal: corrupt %s: %w", journalPlanFile, err)
		}
		if got != meta {
			return nil, fmt.Errorf("dist: journal %s was written by a different run (have %+v, want %+v); "+
				"point -journal at a fresh directory or re-run the original plan", dir, got, meta)
		}
	}
	return &journal{dir: dir}, nil
}

// spoolName returns task id's spool file name; fixed width keeps
// directory listings in task order.
func spoolName(id int) string { return fmt.Sprintf("r%08d.frame", id) }

// put spools one completed result durably (temp + rename).
func (j *journal) put(id int, payload []byte) error {
	if err := WriteFileAtomic(filepath.Join(j.dir, spoolName(id)), writeBytes(EncodeFrame(payload))); err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	return nil
}

// get loads one spooled result, reporting ok=false when the task has
// no valid spool entry (missing or failing its frame check).
func (j *journal) get(id int) (payload []byte, ok bool) {
	b, err := os.ReadFile(filepath.Join(j.dir, spoolName(id)))
	if err != nil {
		return nil, false
	}
	payload, err = DecodeFrame(b)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// WriteFileAtomic writes a file through a uniquely named temporary
// sibling and a rename: write fills the temporary, which replaces path
// only once it is complete and closed, so a kill mid-write never leaves
// a half-written file under the final name and two writers never share
// a temporary. The temporary is removed on any failure. No fsync: the
// rename is atomic against a process crash, not against power loss.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) // best effort; err is the failure to report
	}
	return err
}

// writeBytes is the WriteFileAtomic callback for contents already in
// memory.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}
