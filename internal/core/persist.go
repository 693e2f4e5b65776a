package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"

	"landmarkrd/internal/graph"
)

// Snapshot persistence. Snapshots are written in the v3 portfolio format
// (persist_portfolio.go); a single-landmark index is a K=1 portfolio. The
// retired v2 single-landmark format stays readable so existing snapshot
// files keep loading, as K=1 portfolios. Its layout (little endian):
//
//	magic       [8]byte  "LRDIDX2\n"
//	version     uint32   (2)
//	flags       uint32   (reserved, must be 0)
//	landmark    int64
//	mode        int64
//	n           int64
//	fingerprint uint64   Graph.Fingerprint() of the build graph
//	diag        n × float64
//	crc         uint64   CRC-64/ECMA over every preceding byte
//
// Both formats carry the graph fingerprint, which pins a snapshot to the
// exact graph it was built from — loading against a different graph of the
// same size is rejected rather than silently producing wrong resistances —
// and a trailing CRC that detects corruption and truncation anywhere in the
// stream.

var indexMagic = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '2', '\n'}

// indexMagicV1 is the magic of the retired unchecksummed v1 format; it is
// recognized only to produce a version error instead of a corruption error.
var indexMagicV1 = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '1', '\n'}

// indexVersion is the version field of a v2 snapshot.
const indexVersion uint32 = 2

// Typed snapshot rejection errors. ReadPortfolio wraps them with detail;
// match with errors.Is.
var (
	// ErrSnapshotCorrupt marks a stream that is not an index snapshot or is
	// structurally broken (bad magic, truncation, nonsense header fields).
	ErrSnapshotCorrupt = errors.New("core: index snapshot corrupt")
	// ErrSnapshotVersion marks a snapshot written by an incompatible format
	// version (including the retired v1 format).
	ErrSnapshotVersion = errors.New("core: index snapshot version unsupported")
	// ErrSnapshotChecksum marks a snapshot whose trailing CRC does not match
	// its contents: bit rot or a partially written file.
	ErrSnapshotChecksum = errors.New("core: index snapshot checksum mismatch")
	// ErrSnapshotMismatch marks a well-formed snapshot that was built from a
	// different graph than the one it is being loaded against.
	ErrSnapshotMismatch = errors.New("core: index snapshot built from a different graph")
)

// crcTable is the CRC-64/ECMA table the snapshot trailer uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// checksumReader hashes every byte it hands out so the reader can verify
// the trailer CRC after consuming the body.
type checksumReader struct {
	r   io.Reader
	sum hash.Hash64
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum.Write(p[:n])
	}
	return n, err
}

// readIndexV2Body parses a v2 snapshot after the magic has been consumed.
func readIndexV2Body(cr *checksumReader, g *graph.Graph) (*Index, error) {
	var version, flags uint32
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrSnapshotCorrupt, err)
	}
	if version != indexVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrSnapshotVersion, version, indexVersion)
	}
	if err := binary.Read(cr, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: reading flags: %v", ErrSnapshotCorrupt, err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrSnapshotVersion, flags)
	}
	var landmark, mode, n int64
	for _, p := range []*int64{&landmark, &mode, &n} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", ErrSnapshotCorrupt, err)
		}
	}
	var fp uint64
	if err := binary.Read(cr, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: reading fingerprint: %v", ErrSnapshotCorrupt, err)
	}
	if n != int64(g.N()) {
		return nil, fmt.Errorf("%w: snapshot built for n=%d, graph has n=%d", ErrSnapshotMismatch, n, g.N())
	}
	if landmark < 0 || landmark >= n {
		return nil, fmt.Errorf("%w: stored landmark %d out of range [0, %d)", ErrSnapshotCorrupt, landmark, n)
	}
	if fp != g.Fingerprint() {
		return nil, fmt.Errorf("%w: fingerprint %#x, graph has %#x", ErrSnapshotMismatch, fp, g.Fingerprint())
	}
	diag := make([]float64, n)
	if err := binary.Read(cr, binary.LittleEndian, diag); err != nil {
		return nil, fmt.Errorf("%w: reading diagonal: %v", ErrSnapshotCorrupt, err)
	}
	want := cr.sum.Sum64()
	var got uint64
	// The trailer itself is not checksummed: read it from the underlying
	// reader, not through cr.
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: reading checksum trailer: %v", ErrSnapshotCorrupt, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: stored %#x, computed %#x", ErrSnapshotChecksum, got, want)
	}
	return &Index{G: g, Landmark: int(landmark), Diag: diag, Mode: DiagMode(mode)}, nil
}
