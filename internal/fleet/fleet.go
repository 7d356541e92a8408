// Package fleet scales the remote tier out: N replicated file servers —
// each a remote.Server with its own disk, memory, and buffer cache —
// behind one client-side selector that picks a replica per read using the
// same SLED estimates the paper's FSLEDS_GET reports for local devices.
//
// Each replica registers one characterization device with the client
// kernel ("fleet/r0", "fleet/r1", ...), calibrated by lmbench like any
// other level. Per read the client queries every candidate replica
// (core.QueryAppend against the replica's copy of the file), folds in
// what the replica's server cache holds right now, and routes to the
// cheapest estimate. Load (queue depth under an iosched engine) and
// health (decaying fault penalties from core.Table.ObserveFault) steer
// the choice exactly as they steer local SLED queries; when every
// replica's confidence has collapsed below the floor the selector falls
// back to a confidence-weighted choice instead of trusting any single
// estimate.
//
// On top of selection the package layers the paper's latency-management
// toolkit for a fleet:
//
//   - Hedged reads: a virtual-time hedge deadline derived from the SLED
//     estimate arms a second-best replica; the first completion wins and
//     the loser is cancelled (iosched.HedgedDevReadAt).
//   - Failover: per-replica retry budgets with capped, doubling
//     virtual-time backoff; a faulted attempt feeds ObserveFault so the
//     next selection already routes around the replica.
//   - Graceful degradation: replicas whose confidence falls below the
//     floor are demoted out of the candidate set and probed back with a
//     bounded fraction of traffic, so a recovered server earns its
//     traffic back within a bounded number of probes.
//
// Everything runs in virtual time off deterministic state: selections,
// hedges, and backoffs are byte-identical across runs and worker counts.
package fleet

import (
	"fmt"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/remote"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// Config parameterises a fleet.
type Config struct {
	// Replicas is the number of servers (>= 1).
	Replicas int
	// Server configures every replica's server.
	Server remote.Config
	// ProbeEvery routes every ProbeEvery-th selection to a demoted
	// replica (round-robin among them), so a recovered server is
	// rediscovered within a bounded number of selections.
	ProbeEvery int
}

// DefaultConfig returns a four-replica fleet of DefaultConfig servers.
func DefaultConfig() Config {
	return Config{
		Replicas:   4,
		Server:     remote.DefaultConfig(),
		ProbeEvery: 16,
	}
}

// Replica is one server of the fleet and its client-side bookkeeping.
type Replica struct {
	Dev device.ID // the replica's registered characterization device

	srv   *remote.Server
	inode *vfs.Inode // this replica's copy of the replicated file

	// Cumulative counters, maintained by the selector and Read driver.
	Issued int64 // reads issued with this replica as primary
	Faults int64 // completions that surfaced a fault from this replica
	Probes int64 // selections that were probes of this (demoted) replica
}

// Server exposes the replica's server for inspection. Faults are injected
// by replacing the replica's registered device (vfs.Kernel.Devices), which
// wraps the whole server.
func (r *Replica) Server() *remote.Server { return r.srv }

// Inode returns the replica's copy of the replicated file (nil before
// CreateFile).
func (r *Replica) Inode() *vfs.Inode { return r.inode }

// Fleet is the client-side view of the replicated remote tier.
type Fleet struct {
	k   *vfs.Kernel
	cfg Config
	tab *core.Table

	replicas []*Replica
	pageSize int64

	picks   int64 // total selections, drives the probe cadence
	probeRR int   // round-robin cursor over demoted replicas
	rr      int   // round-robin cursor for PolicyRR

	scratch []core.SLED // QueryAppend scratch, reused across estimates
	ests    []estimate  // per-replica scratch for Select
}

// New attaches cfg.Replicas replica devices to the client kernel and
// returns the fleet. Call SetTable after calibration, then CreateFile.
func New(k *vfs.Kernel, cfg Config) (*Fleet, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("fleet: %d replicas", cfg.Replicas)
	}
	f := &Fleet{
		k:        k,
		cfg:      cfg,
		pageSize: int64(k.PageSize()),
		replicas: make([]*Replica, cfg.Replicas),
		ests:     make([]estimate, cfg.Replicas),
	}
	for i := range f.replicas {
		srv, err := remote.NewServer(cfg.Server, device.ID(k.Devices.Len()), fmt.Sprintf("fleet/r%d", i), f.pageSize)
		if err != nil {
			return nil, err
		}
		f.replicas[i] = &Replica{Dev: k.AttachDevice(remote.NewServerDevice(srv)), srv: srv}
	}
	return f, nil
}

// Replicas reports the fleet size.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Replica returns replica i.
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// SetTable attaches the calibrated sleds table the selector estimates
// from (and feeds fault observations into).
func (f *Fleet) SetTable(tab *core.Table) { f.tab = tab }

// CreateFile creates one copy of the replicated file per replica —
// path.r0, path.r1, ... on the respective replica devices, identical
// content from the seed — and remembers the inodes for estimates and
// reads. Size must be a multiple of the page size.
func (f *Fleet) CreateFile(path string, seed uint64, size int64) error {
	for i, r := range f.replicas {
		n, err := f.k.Create(fmt.Sprintf("%s.r%d", path, i), r.Dev, workload.NewText(seed, size, int(f.pageSize)))
		if err != nil {
			return err
		}
		r.inode = n
	}
	return nil
}
