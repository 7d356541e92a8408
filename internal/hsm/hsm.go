// Package hsm implements a migrating hierarchical storage manager: files
// live on a tape library and are staged, block by block, onto a disk
// migration cache as they are read — "analogous to movement between disk
// and RAM in conventional file systems" (paper §1).
//
// The paper motivates SLEDs largely with HSM ("SLEDs are expected to
// benefit hierarchical storage management systems, with their very high
// latencies, more than other types of file systems") but evaluates only
// disk-backed file systems; it cites the then-beginning Linux migration
// file system [Sch00] as the platform for future work. This package is
// that future work, built so the E-HSM experiment can measure the
// prediction.
//
// The stager plugs into the simulated kernel via vfs.Kernel.SetStager: RAM
// page-cache misses on tape-resident files flow through Fetch, which
// serves staged blocks from disk and migrates unstaged ones tape -> disk
// (charging both the tape read and the disk write), each device access
// retried on its own under the kernel's retry policy. The stage is a page
// cache (internal/cache) of bounded capacity, one page per block, evicted
// LRU with tape as the authority (staging is read-only, so eviction is
// free).
package hsm

import (
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/vfs"
)

// blockPages is the migration granularity in VM pages: 64 KiB of 4 KiB
// pages.
const blockPages = 16

// Config parameterises the stager.
type Config struct {
	// Tape is the backing tape library; files managed by the stager live
	// on it.
	Tape device.ID
	// Disk is the device holding the migration cache.
	Disk device.ID
	// Capacity is the total bytes of disk given to the migration cache.
	Capacity int64
}

// Stager is the migrating HSM layer.
type Stager struct {
	k         *vfs.Kernel
	cfg       Config
	blockSize int64 // blockPages pages

	// stage is the migration cache: one page per staged block, keyed
	// {ino, block} and evicted LRU. A page holds no data: it is an empty
	// slice of tags whose position names the block's slot in the
	// migration area, and its eviction hands that slot back to free.
	stage     *cache.Cache
	tags      []byte
	areaStart int64 // disk offset of the migration area
	free      []int // free slots, the last taken first
}

// New reserves the migration area on the disk and returns the stager,
// already registered with the kernel for files on cfg.Tape.
func New(k *vfs.Kernel, cfg Config) (*Stager, error) {
	blockSize := blockPages * int64(k.PageSize())
	if cfg.Capacity < blockSize {
		return nil, fmt.Errorf("hsm: capacity %d below one block", cfg.Capacity)
	}
	slots := int(cfg.Capacity / blockSize)
	area, err := k.ReserveExtent(cfg.Disk, int64(slots)*blockSize)
	if err != nil {
		return nil, fmt.Errorf("hsm: reserving migration area: %w", err)
	}
	s := &Stager{k: k, cfg: cfg, blockSize: blockSize, tags: make([]byte, slots), areaStart: area}
	s.stage = cache.New(slots, cache.LRU, func(_ cache.Key, tag []byte, _ bool) {
		s.free = append(s.free, s.slot(tag))
	})
	for i := 0; i < slots; i++ {
		s.free = append(s.free, i)
	}
	k.SetStager(s, cfg.Tape)
	return s, nil
}

// slot is the migration-area slot a staged block's tag names.
func (s *Stager) slot(tag []byte) int { return len(s.tags) - cap(tag) }

// IsStaged reports whether the block containing devOff of the inode is in
// the migration cache (without touching recency).
func (s *Stager) IsStaged(ino *vfs.Inode, devOff int64) bool {
	return s.stage.Contains(s.keyFor(ino, devOff))
}

func (s *Stager) keyFor(ino *vfs.Inode, devOff int64) cache.Key {
	return cache.Key{File: uint64(ino.Ino()), Page: (devOff - ino.Extent()) / s.blockSize}
}

// DeviceFor implements vfs.Stager.
func (s *Stager) DeviceFor(ino *vfs.Inode, devOff int64) device.ID {
	if s.IsStaged(ino, devOff) {
		return s.cfg.Disk
	}
	return s.cfg.Tape
}

// Fetch implements vfs.Stager: serve each touched block from the disk
// stage, migrating it from tape first if needed. Each tape read, disk
// read and disk write is its own access under the kernel's retry policy
// (vfs.Kernel.Access), so a fault is retried where it happens instead of
// re-running the reads of blocks already served.
func (s *Stager) Fetch(ino *vfs.Inode, devOff, length int64) error {
	if length <= 0 {
		return nil
	}
	end := devOff + length
	for off := devOff; off < end; {
		key := s.keyFor(ino, off)
		blockStart := ino.Extent() + key.Page*s.blockSize
		blockEnd := blockStart + s.blockSize
		// Clamp the block to the file's tape extent end is unnecessary:
		// reads never extend past the file, and staging a ragged tail
		// block just stages fewer meaningful bytes.
		readEnd := end
		if readEnd > blockEnd {
			readEnd = blockEnd
		}

		if tag, ok := s.stage.Get(key); ok {
			// Staged: read the needed range from the migration area.
			slotOff := s.areaStart + int64(s.slot(tag))*s.blockSize
			if err := s.k.Access(s.cfg.Disk, slotOff+(off-blockStart), readEnd-off, false); err != nil {
				return err
			}
		} else {
			// Migrate the whole block from tape, then it is in the disk
			// cache (the migration write itself makes the bytes
			// available; no extra disk read is charged).
			if len(s.free) == 0 {
				if err := s.stage.EvictOne(); err != nil {
					return err
				}
			}
			slot := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			migrateLen := s.blockSize
			if blockEnd > ino.Extent()+ino.Size() {
				// Ragged final block: only the file's bytes exist.
				migrateLen = ino.Extent() + ino.Size() - blockStart
			}
			if err := s.k.Access(s.cfg.Tape, blockStart, migrateLen, false); err != nil {
				s.free = append(s.free, slot)
				return err
			}
			if err := s.k.Access(s.cfg.Disk, s.areaStart+int64(slot)*s.blockSize, migrateLen, true); err != nil {
				s.free = append(s.free, slot)
				return err
			}
			if err := s.stage.Insert(key, s.tags[slot:slot], false); err != nil {
				return err
			}
		}
		off = readEnd
	}
	return nil
}
