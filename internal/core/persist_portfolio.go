package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"landmarkrd/internal/graph"
)

// Portfolio persistence: the v3 snapshot format, the only one written. It
// generalizes the retired v2 layout to K landmark columns; a single-landmark
// index is saved as K=1. Layout (little endian):
//
//	magic       [8]byte  "LRDIDX3\n"
//	version     uint32   (3)
//	flags       uint32   (reserved, must be 0)
//	k           int64    number of landmarks
//	mode        int64
//	n           int64
//	fingerprint uint64   Graph.Fingerprint() of the build graph
//	landmarks   k × int64
//	cols        k × n × float64   column-major: all of column 0, then 1, …
//	crc         uint64   CRC-64/ECMA over every preceding byte
//
// v2 single-landmark snapshots stay readable: ReadPortfolio recognizes the
// v2 magic and upgrades the stream to a K=1 portfolio in memory, so
// existing snapshot files keep serving unchanged.

var portfolioMagic = [8]byte{'L', 'R', 'D', 'I', 'D', 'X', '3', '\n'}

// portfolioVersion is the current portfolio snapshot format version.
const portfolioVersion uint32 = 3

// WriteTo serializes the portfolio in the v3 snapshot format. It
// implements io.WriterTo.
func (p *Portfolio) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	sum := crc64.New(crcTable)
	body := io.MultiWriter(bw, sum)
	var written int64
	write := func(v any) error {
		if err := binary.Write(body, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	fail := func(err error) (int64, error) {
		return written, fmt.Errorf("core: writing portfolio: %w", err)
	}
	if err := write(portfolioMagic); err != nil {
		return fail(err)
	}
	if err := write(portfolioVersion); err != nil {
		return fail(err)
	}
	if err := write(uint32(0)); err != nil { // flags
		return fail(err)
	}
	n := p.G.N()
	for _, v := range []int64{int64(len(p.Landmarks)), int64(p.Mode), int64(n)} {
		if err := write(v); err != nil {
			return fail(err)
		}
	}
	if err := write(p.G.Fingerprint()); err != nil {
		return fail(err)
	}
	for _, v := range p.Landmarks {
		if err := write(int64(v)); err != nil {
			return fail(err)
		}
	}
	for _, col := range p.Cols {
		if err := write(col); err != nil {
			return fail(err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum64()); err != nil {
		return fail(err)
	}
	written += 8
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return written, nil
}

// SavePortfolio writes the portfolio snapshot to a file.
func SavePortfolio(p *Portfolio, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if _, err := p.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadPortfolio deserializes a portfolio snapshot and binds it to g,
// validating the stored dimensions, the graph fingerprint, and the trailing
// CRC. A v2 single-landmark snapshot is accepted and upgraded to a K=1
// portfolio, so pre-portfolio snapshot files keep working. Rejections
// carry the typed ErrSnapshot* causes.
func ReadPortfolio(r io.Reader, g *graph.Graph) (*Portfolio, error) {
	cr := &checksumReader{r: bufio.NewReader(r), sum: crc64.New(crcTable)}
	var magic [8]byte
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrSnapshotCorrupt, err)
	}
	switch magic {
	case indexMagicV1:
		return nil, fmt.Errorf("%w: v1 snapshot (rebuild the index to upgrade)", ErrSnapshotVersion)
	case indexMagic:
		idx, err := readIndexV2Body(cr, g)
		if err != nil {
			return nil, err
		}
		return NewPortfolio(g, idx.Mode, []int{idx.Landmark}, [][]float64{idx.Diag}), nil
	case portfolioMagic:
		return readPortfolioV3Body(cr, g)
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, magic[:])
	}
}

// readPortfolioV3Body parses a v3 snapshot after the magic has been
// consumed.
func readPortfolioV3Body(cr *checksumReader, g *graph.Graph) (*Portfolio, error) {
	var version, flags uint32
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrSnapshotCorrupt, err)
	}
	if version != portfolioVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrSnapshotVersion, version, portfolioVersion)
	}
	if err := binary.Read(cr, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: reading flags: %v", ErrSnapshotCorrupt, err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrSnapshotVersion, flags)
	}
	var k, mode, n int64
	for _, p := range []*int64{&k, &mode, &n} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", ErrSnapshotCorrupt, err)
		}
	}
	if n != int64(g.N()) {
		return nil, fmt.Errorf("%w: snapshot built for n=%d, graph has n=%d", ErrSnapshotMismatch, n, g.N())
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: stored k=%d out of range [1, %d]", ErrSnapshotCorrupt, k, n)
	}
	var fp uint64
	if err := binary.Read(cr, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: reading fingerprint: %v", ErrSnapshotCorrupt, err)
	}
	if fp != g.Fingerprint() {
		return nil, fmt.Errorf("%w: fingerprint %#x, graph has %#x", ErrSnapshotMismatch, fp, g.Fingerprint())
	}
	landmarks := make([]int, k)
	seen := make(map[int]bool, k)
	for j := range landmarks {
		var v int64
		if err := binary.Read(cr, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("%w: reading landmarks: %v", ErrSnapshotCorrupt, err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: stored landmark %d out of range [0, %d)", ErrSnapshotCorrupt, v, n)
		}
		if seen[int(v)] {
			return nil, fmt.Errorf("%w: duplicate stored landmark %d", ErrSnapshotCorrupt, v)
		}
		seen[int(v)] = true
		landmarks[j] = int(v)
	}
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		if err := binary.Read(cr, binary.LittleEndian, cols[j]); err != nil {
			return nil, fmt.Errorf("%w: reading column %d: %v", ErrSnapshotCorrupt, j, err)
		}
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
	return NewPortfolio(g, DiagMode(mode), landmarks, cols), nil
}

// LoadPortfolio reads a portfolio snapshot file (v3, or a v2 index file
// upgraded to K=1) and binds it to g.
func LoadPortfolio(path string, g *graph.Graph) (*Portfolio, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return ReadPortfolio(f, g)
}
