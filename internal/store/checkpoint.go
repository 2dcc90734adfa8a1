package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// This file implements the write-ahead task checkpoint log the gateway
// uses to make chains survive a controller crash. Before dispatching a
// chain step the gateway records (task id, step index, input key); after
// the step runs it commits the output under a create-only key. A newly
// promoted primary enumerates checkpoints that never reached Done — the
// orphans — and re-dispatches them through the ordinary respawn path.
// Re-execution is safe because step commits are create-only: the second
// writer loses the Put race with ErrConflict and adopts the first
// writer's output, so every step's effect lands exactly once no matter
// how many times the step itself runs.

// TaskCheckpoint is the durable record of one in-flight chain.
type TaskCheckpoint struct {
	TaskID   string
	Method   string // gateway chain method to resume through
	NextStep int    // first step not known to be committed
	InputKey string // store key holding the original chain input
	Done     bool
}

// Checkpoint key layout.
const checkpointPrefix = "ckpt/"

// CheckpointKey is the store key of a task's checkpoint record.
func CheckpointKey(taskID string) string { return checkpointPrefix + taskID }

// TaskInputKey is the store key of a task's original chain input.
func TaskInputKey(taskID string) string { return "task/" + taskID + "/in" }

// StepOutputKey is the store key a chain step's output commits under.
func StepOutputKey(taskID string, step int) string {
	return fmt.Sprintf("task/%s/out/%d", taskID, step)
}

// RevGen exposes the generation number of a revision token (1 for a
// document written exactly once) so tests can assert single-commit
// semantics.
func RevGen(rev string) int { return revGen(rev) }

// FenceSource supplies the fence token (controller term) checkpoint
// writes carry. A gateway fronting controller replica R wires this to
// R's current term, so every checkpoint mutation is term-stamped and a
// deposed primary's writes bounce off the store's fence.
type FenceSource func() uint64

// CheckpointLog is the gateway-side API over the checkpoint keys of a
// DB. All methods are safe for concurrent use (the DB serializes).
type CheckpointLog struct {
	db    *DB
	fence FenceSource // nil: unfenced (token 0)
}

// NewCheckpointLog wraps a store with unfenced writes.
func NewCheckpointLog(db *DB) *CheckpointLog { return &CheckpointLog{db: db} }

// NewFencedCheckpointLog wraps a store with term-stamped writes drawn
// from src at each mutation.
func NewFencedCheckpointLog(db *DB, src FenceSource) *CheckpointLog {
	return &CheckpointLog{db: db, fence: src}
}

// DB returns the underlying store.
func (l *CheckpointLog) DB() *DB { return l.db }

// token draws the current fence token (0 when unfenced).
func (l *CheckpointLog) token() uint64 {
	if l.fence == nil {
		return 0
	}
	return l.fence()
}

// Begin opens (or, on re-dispatch, re-opens) a task: it persists the
// chain input and the checkpoint record, and returns the record plus
// the authoritative input. Begin is idempotent — a resumed task gets
// its originally stored input back even if the re-dispatch supplied a
// different payload, so duplicate submissions cannot fork a chain.
func (l *CheckpointLog) Begin(taskID, method string, input []byte) (TaskCheckpoint, []byte, error) {
	key := CheckpointKey(taskID)
	if doc, err := l.db.Get(key); err == nil {
		var ck TaskCheckpoint
		if jerr := json.Unmarshal(doc.Body, &ck); jerr != nil {
			return TaskCheckpoint{}, nil, fmt.Errorf("store: corrupt checkpoint %s: %w", key, jerr)
		}
		in, gerr := l.db.Get(ck.InputKey)
		if gerr != nil {
			return TaskCheckpoint{}, nil, fmt.Errorf("store: checkpoint %s lost its input: %w", key, gerr)
		}
		return ck, in.Body, nil
	} else if !errors.Is(err, ErrNotFound) {
		return TaskCheckpoint{}, nil, err
	}
	ck := TaskCheckpoint{TaskID: taskID, Method: method, InputKey: TaskInputKey(taskID)}
	if _, err := l.db.ForceFenced(l.token(), ck.InputKey, input); err != nil {
		return TaskCheckpoint{}, nil, err
	}
	if err := l.write(ck); err != nil {
		return TaskCheckpoint{}, nil, err
	}
	return ck, input, nil
}

// Advance records that dispatch of step is imminent (the write-ahead
// part: the record hits the store before the step runs). NextStep only
// moves forward, so a slow duplicate cannot rewind a resumed task.
func (l *CheckpointLog) Advance(taskID string, step int) error {
	key := CheckpointKey(taskID)
	doc, err := l.db.Get(key)
	if err != nil {
		return err
	}
	var ck TaskCheckpoint
	if err := json.Unmarshal(doc.Body, &ck); err != nil {
		return fmt.Errorf("store: corrupt checkpoint %s: %w", key, err)
	}
	if step <= ck.NextStep {
		return nil
	}
	ck.NextStep = step
	return l.write(ck)
}

// CommitStep records a step's output under a create-only key. The first
// commit wins; a concurrent or repeated commit gets the original output
// back, which is exactly the deduplication the §4.7 takeover needs.
func (l *CheckpointLog) CommitStep(taskID string, step int, out []byte) ([]byte, error) {
	key := StepOutputKey(taskID, step)
	if _, err := l.db.PutFenced(l.token(), key, "", out); err == nil {
		return out, nil
	} else if !errors.Is(err, ErrConflict) {
		return nil, err
	}
	doc, err := l.db.Get(key)
	if err != nil {
		return nil, err
	}
	return doc.Body, nil
}

// StepOutput returns a previously committed step output, if any.
func (l *CheckpointLog) StepOutput(taskID string, step int) ([]byte, bool, error) {
	doc, err := l.db.Get(StepOutputKey(taskID, step))
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return doc.Body, true, nil
}

// Task returns a task's checkpoint record (found=false when the task
// id is unknown). The ingress layer uses it to resolve result ids
// against durable state after the gateway that minted them died.
func (l *CheckpointLog) Task(taskID string) (TaskCheckpoint, bool, error) {
	doc, err := l.db.Get(CheckpointKey(taskID))
	if errors.Is(err, ErrNotFound) {
		return TaskCheckpoint{}, false, nil
	}
	if err != nil {
		return TaskCheckpoint{}, false, err
	}
	var ck TaskCheckpoint
	if jerr := json.Unmarshal(doc.Body, &ck); jerr != nil {
		return TaskCheckpoint{}, false, fmt.Errorf("store: corrupt checkpoint %s: %w", CheckpointKey(taskID), jerr)
	}
	return ck, true, nil
}

// Complete marks a task finished; it stops being an orphan candidate.
func (l *CheckpointLog) Complete(taskID string) error {
	key := CheckpointKey(taskID)
	doc, err := l.db.Get(key)
	if err != nil {
		return err
	}
	var ck TaskCheckpoint
	if err := json.Unmarshal(doc.Body, &ck); err != nil {
		return fmt.Errorf("store: corrupt checkpoint %s: %w", key, err)
	}
	if ck.Done {
		return nil
	}
	ck.Done = true
	return l.write(ck)
}

// Orphans enumerates incomplete tasks (sorted by task id, so recovery
// order is deterministic).
func (l *CheckpointLog) Orphans() ([]TaskCheckpoint, error) {
	var out []TaskCheckpoint
	for _, key := range l.db.Keys() {
		if !strings.HasPrefix(key, checkpointPrefix) {
			continue
		}
		doc, err := l.db.Get(key)
		if errors.Is(err, ErrNotFound) {
			continue // completed and pruned between Keys and Get
		}
		if err != nil {
			return nil, err
		}
		var ck TaskCheckpoint
		if jerr := json.Unmarshal(doc.Body, &ck); jerr != nil {
			// Quarantine, don't abort: one corrupt record must not block
			// recovery of every healthy task. Count it and keep scanning.
			l.db.monitor().Inc(MetricCorruptCheckpoint)
			continue
		}
		if !ck.Done {
			out = append(out, ck)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out, nil
}

// write serializes a checkpoint record last-writer-wins (the record is
// advisory bookkeeping; the exactly-once guarantee lives in the
// create-only step outputs).
func (l *CheckpointLog) write(ck TaskCheckpoint) error {
	body, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	_, err = l.db.ForceFenced(l.token(), CheckpointKey(ck.TaskID), body)
	return err
}
