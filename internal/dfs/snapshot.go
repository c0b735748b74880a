package dfs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// snapshotMagic heads every serialised FS image so a stray file is
// rejected with a clear error instead of garbage decoding.
const snapshotMagic = "mwsdfs1\n"

// WriteSnapshot serialises the file system's contents — names and
// records, not counters — to w. Snapshots exist so a killed job chain
// can hand its checkpoints to a later process (mwsjoin -checkpoint /
// -resume); they are host I/O, not simulated DFS traffic, so nothing
// is charged to the Stats counters.
//
// Format: magic, uvarint file count, then per file (lexical name
// order) a uvarint-length-prefixed name, a uvarint record count, and
// each record uvarint-length-prefixed.
//
// Columnar MBB files are serialised as their boxed record images (the
// wire formats are byte-identical), so the snapshot format is
// independent of the storage kind; they restore as boxed files, which
// ScanMBB reads just as well. Local spill scratch (CreateLocal) is
// transient shuffle state, not chain state, and is skipped.
func (fs *FS) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var names []string
	for _, name := range fs.List() {
		fs.mu.RLock()
		local := fs.files[name].local
		fs.mu.RUnlock()
		if !local {
			names = append(names, name)
		}
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		fs.mu.RLock()
		f := fs.files[name]
		fs.mu.RUnlock()
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := putUvarint(uint64(f.count())); err != nil {
			return err
		}
		if _, err := f.forEachRange(0, f.count(), func(rec []byte) error {
			if err := putUvarint(uint64(len(rec))); err != nil {
				return err
			}
			_, err := bw.Write(rec)
			return err
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Length caps for ReadSnapshot: a length prefix above its cap is
// rejected as corrupt. Names are DFS paths; records are encoded tuples
// and relation rows, far below the record cap.
const (
	maxSnapshotName   = 1 << 12
	maxSnapshotRecord = 1 << 26
)

// snapshotEagerBytes is the largest length ReadSnapshot allocates up
// front; longer records grow with the bytes actually read, so a corrupt
// prefix under the cap still cannot demand more memory than the input
// holds.
const snapshotEagerBytes = 1 << 16

// readSnapshotBytes reads a length-prefixed field of n bytes, n ≤ limit.
func readSnapshotBytes(r io.Reader, n, limit uint64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("length %d exceeds the %d-byte limit", n, limit)
	}
	if n <= snapshotEagerBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadSnapshot reconstructs a file system from a WriteSnapshot image.
// Counters start at zero — the snapshot restores state, and only the
// resumed run's own I/O should be charged to it.
func ReadSnapshot(r io.Reader, blockSize int64) (*FS, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dfs: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("dfs: not a dfs snapshot (bad magic %q)", magic)
	}
	fs := New(blockSize)
	nFiles, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dfs: reading snapshot file count: %w", err)
	}
	for i := uint64(0); i < nFiles; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d: %w", i, err)
		}
		nameBuf, err := readSnapshotBytes(br, nameLen, maxSnapshotName)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d name: %w", i, err)
		}
		name := string(nameBuf)
		nRecs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot %q record count: %w", name, err)
		}
		// The count only bounds the loop: records are appended as they
		// arrive, so a corrupt count fails at end of input instead of
		// sizing an allocation.
		f := &file{}
		for j := uint64(0); j < nRecs; j++ {
			recLen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("dfs: snapshot %q record %d: %w", name, j, err)
			}
			rec, err := readSnapshotBytes(br, recLen, maxSnapshotRecord)
			if err != nil {
				return nil, fmt.Errorf("dfs: snapshot %q record %d: %w", name, j, err)
			}
			f.records = append(f.records, rec)
			f.bytes += int64(len(rec))
		}
		fs.files[name] = f
	}
	return fs, nil
}
