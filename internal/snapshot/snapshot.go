// Package snapshot defines the c2mn-snapshot file format: the durable
// form of one venue shard's live serving state — the open η-gap stream
// fragments and the time-bucketed top-k query index — so a restarted
// server resumes its sliding windows instead of serving cold.
//
// A snapshot file is two parts:
//
//   - a one-line JSON header carrying the format name and version, the
//     venue identity (venue ID plus hashes of the venue's Space and
//     model serialisations, so a snapshot cannot be restored into a
//     venue it was not captured from), and the body's length and
//     CRC-32C;
//   - a JSON body with three sections: the engine counters, the open
//     stream fragments, and the query-index state.
//
// The header-first layout means version and identity checks never
// decode an incompatible body, and the length + checksum reject a
// truncated or torn file with a typed error instead of misreading it.
// Files are written atomically (temp file, fsync, rename, directory
// fsync) by WriteFile, so a crash mid-write leaves either the previous
// snapshot or none — never a partial one.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"c2mn/internal/indoor"
	"c2mn/internal/query"
	"c2mn/internal/seq"
)

// Format identity. Version 1 is the initial format.
const (
	// Format names the file type in the header.
	Format = "c2mn-snapshot"
	// FormatVersion is the version this build writes.
	FormatVersion = 1
)

// Typed failure modes, matched by callers with errors.Is.
var (
	// ErrFormat is returned for files that are not c2mn snapshots.
	ErrFormat = errors.New("snapshot: not a c2mn snapshot file")
	// ErrVersion is returned for snapshots written by a newer format
	// version than this build understands.
	ErrVersion = errors.New("snapshot: unsupported snapshot format version")
	// ErrCorrupt is returned for truncated or corrupted snapshots: a
	// body shorter than the header promises, a checksum mismatch, or
	// undecodable section JSON.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated snapshot")
)

// Header is the first line of a snapshot file. It is self-contained:
// compatibility and identity are decidable without reading the body.
type Header struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	Venue       string `json:"venue"`
	SpaceHash   string `json:"space_hash"`
	ModelHash   string `json:"model_hash"`
	CreatedUnix int64  `json:"created_unix"`
	BodyLen     int64  `json:"body_len"`
	BodyCRC     uint32 `json:"body_crc32c"`
}

// File is one venue's decoded snapshot: the header plus the three
// body sections.
type File struct {
	Header
	Engine  EngineSection
	Streams []StreamSection
	Index   IndexSection
}

// EngineSection carries the engine's preprocessing configuration (the
// guard against restoring into a differently-configured engine) and
// its monotonic pipeline counters.
type EngineSection struct {
	Eta              float64 `json:"eta"`
	Psi              float64 `json:"psi"`
	Retention        float64 `json:"retention"`
	FedRecords       int64   `json:"fed_records"`
	EmittedSequences int64   `json:"emitted_sequences"`
	// FeedBatches counts the streaming path's pooled-state
	// acquisitions (coalesced micro-batches). omitempty keeps a
	// zero-batch snapshot byte-identical to the pre-batching format,
	// and pre-batching snapshots restore the counter as 0.
	FeedBatches int64 `json:"feed_batches,omitempty"`
	// Query-cache observability counters (hits/misses of the
	// generation-keyed result cache, HTTP 304 revalidations), captured
	// so a warm restart reports continuous stats. Same omitempty
	// compatibility story as FeedBatches.
	QueryCacheHits          int64 `json:"query_cache_hits,omitempty"`
	QueryCacheMisses        int64 `json:"query_cache_misses,omitempty"`
	QueryCacheRevalidations int64 `json:"query_cache_revalidations,omitempty"`
}

// StreamSection is one open stream: its key, the next fragment number
// and the buffered records of the open fragment as [x, y, floor, t]
// tuples (the dataset wire schema).
type StreamSection struct {
	Venue    string       `json:"venue"`
	Object   string       `json:"object"`
	Fragment int          `json:"fragment"`
	Records  [][4]float64 `json:"records,omitempty"`
}

// IndexSection is the query-index state: bucket geometry, eviction
// clock and the retained sequences in insertion order, each sequence's
// semantics as [region, start, end, event] tuples.
type IndexSection struct {
	Retention float64 `json:"retention"`
	BaseWidth float64 `json:"base_width"`
	Width     float64 `json:"width"`
	MaxEnd    float64 `json:"max_end"`
	HasMax    bool    `json:"has_max"`
	// Generation is the store's content-mutation counter at capture
	// time; RestoreIndex jumps past it so validators published by the
	// captured process can never collide with the restored one's.
	// omitempty keeps generation-zero snapshots byte-identical to the
	// pre-generation format.
	Generation uint64          `json:"generation,omitempty"`
	Sequences  []IndexSequence `json:"sequences"`
}

// IndexSequence is one retained ms-sequence.
type IndexSequence struct {
	Object    string       `json:"object"`
	Semantics [][4]float64 `json:"semantics"`
}

// body is the on-disk section layout after the header line.
type body struct {
	Engine  EngineSection   `json:"engine"`
	Streams []StreamSection `json:"streams"`
	Index   IndexSection    `json:"index"`
}

// EncodeStreams converts captured stream states to their wire form.
func EncodeStreams(states []seq.StreamState) []StreamSection {
	out := make([]StreamSection, 0, len(states))
	for _, st := range states {
		s := StreamSection{Venue: st.Key.Venue, Object: st.Key.Object, Fragment: st.Fragment}
		for _, r := range st.Records {
			s.Records = append(s.Records, [4]float64{r.Loc.X, r.Loc.Y, float64(r.Loc.Floor), r.T})
		}
		out = append(out, s)
	}
	return out
}

// DecodeStreams converts wire stream sections back to stream states.
func DecodeStreams(sections []StreamSection) []seq.StreamState {
	out := make([]seq.StreamState, 0, len(sections))
	for _, s := range sections {
		st := seq.StreamState{
			Key:      seq.StreamKey{Venue: s.Venue, Object: s.Object},
			Fragment: s.Fragment,
		}
		for _, r := range s.Records {
			st.Records = append(st.Records, seq.Record{
				Loc: indoor.Loc(r[0], r[1], int(r[2])),
				T:   r[3],
			})
		}
		out = append(out, st)
	}
	return out
}

// EncodeIndex converts a captured index state to its wire form.
func EncodeIndex(st query.IndexState) IndexSection {
	out := IndexSection{
		Retention:  st.Retention,
		BaseWidth:  st.BaseWidth,
		Width:      st.Width,
		MaxEnd:     st.MaxEnd,
		HasMax:     st.HasMax,
		Generation: st.Generation,
	}
	for _, ms := range st.Seqs {
		is := IndexSequence{Object: ms.ObjectID}
		for _, m := range ms.Semantics {
			is.Semantics = append(is.Semantics, [4]float64{float64(m.Region), m.Start, m.End, float64(m.Event)})
		}
		out.Sequences = append(out.Sequences, is)
	}
	return out
}

// DecodeIndex converts a wire index section back to an index state.
func DecodeIndex(sec IndexSection) query.IndexState {
	st := query.IndexState{
		Retention:  sec.Retention,
		BaseWidth:  sec.BaseWidth,
		Width:      sec.Width,
		MaxEnd:     sec.MaxEnd,
		HasMax:     sec.HasMax,
		Generation: sec.Generation,
	}
	for _, is := range sec.Sequences {
		ms := seq.MSSequence{ObjectID: is.Object}
		for _, m := range is.Semantics {
			ms.Semantics = append(ms.Semantics, seq.MSemantics{
				Region: indoor.RegionID(m[0]),
				Start:  m[1],
				End:    m[2],
				Event:  seq.Event(m[3]),
			})
		}
		st.Seqs = append(st.Seqs, ms)
	}
	return st
}

// castagnoli is the CRC-32C table used for the body checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write serialises the snapshot to w: header line first, body after.
// The file's BodyLen/BodyCRC fields are computed here; values set by
// the caller are ignored.
func Write(w io.Writer, f *File) error {
	bodyBuf, err := json.Marshal(body{Engine: f.Engine, Streams: f.Streams, Index: f.Index})
	if err != nil {
		return fmt.Errorf("snapshot: encoding body: %w", err)
	}
	h := f.Header
	h.Format = Format
	h.Version = FormatVersion
	h.BodyLen = int64(len(bodyBuf))
	h.BodyCRC = crc32.Checksum(bodyBuf, castagnoli)
	headBuf, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("snapshot: encoding header: %w", err)
	}
	if _, err := w.Write(append(headBuf, '\n')); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	if _, err := w.Write(bodyBuf); err != nil {
		return fmt.Errorf("snapshot: writing body: %w", err)
	}
	return nil
}

// Read deserialises a snapshot written by Write. Files that are not
// c2mn snapshots fail with ErrFormat, future format versions with
// ErrVersion, and truncated or corrupted files with ErrCorrupt — the
// header is always judged before the body is decoded.
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	headLine, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: unterminated header: %v", ErrCorrupt, err)
	}
	var h Header
	if err := json.Unmarshal(headLine, &h); err != nil {
		return nil, fmt.Errorf("%w: undecodable header: %v", ErrFormat, err)
	}
	if h.Format != Format {
		return nil, fmt.Errorf("%w: file has format %q, want %q", ErrFormat, h.Format, Format)
	}
	if h.Version > FormatVersion {
		return nil, fmt.Errorf("%w: file is version %d, this build reads <= %d",
			ErrVersion, h.Version, FormatVersion)
	}
	if h.BodyLen < 0 {
		return nil, fmt.Errorf("%w: negative body length %d", ErrCorrupt, h.BodyLen)
	}
	// The promised length is untrusted (only the body is checksummed):
	// read incrementally up to it rather than pre-allocating it, so a
	// corrupt header claiming an absurd body_len fails with the short
	// read below instead of an out-of-memory crash.
	bodyBuf, err := io.ReadAll(io.LimitReader(br, h.BodyLen))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrCorrupt, err)
	}
	if int64(len(bodyBuf)) != h.BodyLen {
		return nil, fmt.Errorf("%w: body truncated (%d bytes promised, %d present)", ErrCorrupt, h.BodyLen, len(bodyBuf))
	}
	if crc := crc32.Checksum(bodyBuf, castagnoli); crc != h.BodyCRC {
		return nil, fmt.Errorf("%w: body checksum %08x, header says %08x", ErrCorrupt, crc, h.BodyCRC)
	}
	var b body
	dec := json.NewDecoder(bytes.NewReader(bodyBuf))
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: undecodable body: %v", ErrCorrupt, err)
	}
	return &File{Header: h, Engine: b.Engine, Streams: b.Streams, Index: b.Index}, nil
}

// WriteFile writes the snapshot to path atomically: the bytes go to a
// temporary file in the same directory, are fsynced, and the file is
// renamed over path, followed by a directory fsync. A crash at any
// point leaves either the previous snapshot or none — a reader can
// never observe a torn file.
func WriteFile(path string, f *File) error {
	return writeAtomic(path, func(w io.Writer) error { return Write(w, f) })
}

// WriteFileBytes is WriteFile for an already-encoded snapshot, e.g. an
// upload: data lands on disk verbatim, with the same atomicity.
func WriteFileBytes(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic runs write against a temporary file next to path and
// moves the result into place: fsync, rename, directory fsync.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: fsync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	// Persist the rename itself: fsync the directory (best-effort on
	// filesystems that reject directory fsync).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile reads a snapshot file from path; see Read for the error
// contract. A missing file surfaces as os.ErrNotExist.
func ReadFile(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	f, err := Read(fd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
