package landmarkrd

import (
	"io"

	"landmarkrd/internal/core"
)

// Index snapshots: a PortfolioIndex serializes to a versioned, checksummed
// binary format (the v3 format, magic "LRDIDX3\n": K landmark columns, a
// CRC-64 trailer, and a fingerprint of the graph it was built from) with
// its WriteTo method (an io.WriterTo) or SavePortfolioIndex, and loads back
// with ReadPortfolioFrom / LoadPortfolioIndex. The fingerprint binds a
// snapshot to that exact graph; a reloaded portfolio answers every query
// Float64bits-identically to the freshly built one. A single-landmark
// index is a K=1 portfolio and is saved the same way. rdserver uses
// snapshots for fast startup and SIGHUP hot-reload; rdbench and rdquery
// can write and reuse them via -snapshot.
//
// Snapshots of the retired v2 single-landmark format (magic "LRDIDX2\n")
// still load, read-only, as K=1 portfolios; nothing writes v2 any more.

// Typed snapshot rejection errors, matched with errors.Is against the error
// ReadPortfolioFrom / LoadPortfolioIndex return.
var (
	// ErrSnapshotCorrupt: not a snapshot, truncated, or structurally broken.
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotVersion: written by an incompatible format version.
	ErrSnapshotVersion = core.ErrSnapshotVersion
	// ErrSnapshotChecksum: contents do not match the trailing CRC.
	ErrSnapshotChecksum = core.ErrSnapshotChecksum
	// ErrSnapshotMismatch: built from a different graph than the one given.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
)

// ReadPortfolioFrom deserializes a portfolio snapshot (v3, or v2 upgraded
// to K=1) from r and binds it to g, verifying the format version, the
// trailing checksum, and that the snapshot was built from exactly g (graph
// fingerprint). Failures match the ErrSnapshot* sentinels.
func ReadPortfolioFrom(r io.Reader, g *Graph) (*PortfolioIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.ReadPortfolio(r, g)
}

// SavePortfolioIndex writes the portfolio snapshot (v3) to a file.
func SavePortfolioIndex(p *PortfolioIndex, path string) error {
	return core.SavePortfolio(p, path)
}

// LoadPortfolioIndex reads a portfolio snapshot file (v3, or v2 upgraded
// to K=1) and binds it to g, with the same verification as
// ReadPortfolioFrom.
func LoadPortfolioIndex(path string, g *Graph) (*PortfolioIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.LoadPortfolio(path, g)
}
