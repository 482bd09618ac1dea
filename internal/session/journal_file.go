package session

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"polardraw/internal/codec"
	"polardraw/internal/reader"
)

// FileJournal is the durable Journal: every record is appended to a
// single log file before it is acknowledged, and NewFileJournal replays
// an existing file so a restarted process resumes with its retained
// samples, options, and checkpoints intact. The in-memory index is a
// MemJournal; the file is the recovery source, not the read path, so
// queries cost the same as the memory journal.
//
// The log is a sequence of length-prefixed records
// (u32 length | u8 type | payload), written with internal/codec; a
// torn final record (crash mid write) is detected by its short length
// and ignored on replay. Every payload starts with the EPC as a
// u32-prefixed string. A sample record is codec's shared Sample layout
// (the EPC, T, antenna byte, RSS, Phase), the same one opDispatchSeq
// frames carry; an open record adds the shared OpenOptions layout
// (EncodeOpenOptions), the same one the wire's hello and open frames
// carry; a checkpoint record adds the covered count (u64) and the
// snapshot as a u32-prefixed blob; a release record is the EPC alone.
//
// The file is fsynced on SaveCheckpoint and Close — between
// checkpoints an OS crash may lose the tail, which the ack/retention
// semantics treat exactly like samples past the last checkpoint: resent
// by the client or replayed from the previous checkpoint. The file is
// append-only and grows with traffic; Release trims the in-memory
// index, and the file is truncated whenever every stroke it holds has
// been released.
type FileJournal struct {
	mu   sync.Mutex
	mem  *MemJournal
	f    *os.File
	path string
}

const (
	fjRecSample     = 1
	fjRecOpen       = 2
	fjRecCheckpoint = 3
	fjRecRelease    = 4
)

// NewFileJournal opens (creating if absent) the journal log at path,
// replays its records, and returns the journal. retain bounds retained
// samples per EPC as in NewMemJournal.
func NewFileJournal(path string, retain int) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &FileJournal{mem: NewMemJournal(retain), f: f, path: path}
	if err := j.replayFile(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replayFile rebuilds the in-memory index from the log, tolerating a
// torn final record.
func (j *FileJournal) replayFile() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return err
	}
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if n < 1 || 4+n > len(data) {
			break // torn tail: crash mid-append
		}
		rec := data[4 : 4+n]
		data = data[4+n:]
		if err := j.applyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

func (j *FileJournal) applyRecord(rec []byte) error {
	d := codec.NewDecoder(rec[1:])
	switch rec[0] {
	case fjRecSample:
		smp := d.Sample()
		if d.Err() != nil {
			return d.Err()
		}
		_, err := j.mem.Append(smp)
		return err
	case fjRecOpen:
		epc := d.Str32()
		opts := DecodeOpenOptions(&d)
		if d.Err() != nil {
			return d.Err()
		}
		return j.mem.RecordOpen(epc, opts)
	case fjRecCheckpoint:
		epc := d.Str32()
		covered := int(d.U64())
		state := d.Blob()
		if d.Err() != nil {
			return d.Err()
		}
		return j.mem.SaveCheckpoint(epc, covered, state)
	case fjRecRelease:
		epc := d.Str32()
		if d.Err() != nil {
			return d.Err()
		}
		j.mem.Release(epc)
		return nil
	default:
		return fmt.Errorf("session: journal file %s: unknown record type %d", j.path, rec[0])
	}
}

// appendRecord writes one length-prefixed record, the type byte and
// payload e holds. Callers hold j.mu.
func (j *FileJournal) appendRecord(e *codec.Encoder) error {
	if err := e.Err(); err != nil {
		return err
	}
	rec := e.Bytes()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
	_, err := j.f.Write(append(hdr[:], rec...))
	return err
}

// Append implements Journal: the record hits the file before the index.
func (j *FileJournal) Append(smp reader.Sample) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := codec.NewEncoder([]byte{fjRecSample})
	e.Sample(smp)
	if err := j.appendRecord(&e); err != nil {
		return 0, err
	}
	return j.mem.Append(smp)
}

// RecordOpen implements Journal.
func (j *FileJournal) RecordOpen(epc string, opts OpenOptions) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := codec.NewEncoder([]byte{fjRecOpen})
	e.Str32(epc)
	EncodeOpenOptions(&e, opts)
	if err := j.appendRecord(&e); err != nil {
		return err
	}
	return j.mem.RecordOpen(epc, opts)
}

// Options implements Journal.
func (j *FileJournal) Options(epc string) (OpenOptions, bool) { return j.mem.Options(epc) }

// SaveCheckpoint implements Journal; the checkpoint is fsynced, making
// everything it covers durable against OS crash as well.
func (j *FileJournal) SaveCheckpoint(epc string, covered int, state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := codec.NewEncoder([]byte{fjRecCheckpoint})
	e.Str32(epc)
	e.U64(uint64(covered))
	e.Blob(state)
	if err := j.appendRecord(&e); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	return j.mem.SaveCheckpoint(epc, covered, state)
}

// Checkpoint implements Journal.
func (j *FileJournal) Checkpoint(epc string) ([]byte, int) { return j.mem.Checkpoint(epc) }

// Replay implements Journal.
func (j *FileJournal) Replay(epc string, from int) []reader.Sample { return j.mem.Replay(epc, from) }

// Release implements Journal. When the last stroke is released the log
// file is truncated, bounding its growth at one process lifetime of
// concurrently-live strokes.
func (j *FileJournal) Release(epc string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := codec.NewEncoder([]byte{fjRecRelease})
	e.Str32(epc)
	_ = j.appendRecord(&e)
	j.mem.Release(epc)
	if len(j.mem.EPCs()) == 0 {
		if err := j.f.Truncate(0); err == nil {
			_, _ = j.f.Seek(0, io.SeekStart)
		}
	}
}

// EPCs implements Journal.
func (j *FileJournal) EPCs() []string { return j.mem.EPCs() }

// Lost implements Journal.
func (j *FileJournal) Lost() uint64 { return j.mem.Lost() }

// Close implements Journal.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

var _ Journal = (*FileJournal)(nil)
