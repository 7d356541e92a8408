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
// (charging both the tape read and the disk write). Staging capacity is
// bounded; blocks are evicted LRU, with tape as the authority (staging is
// read-only, so eviction is free).
package hsm

import (
	"container/list"
	"fmt"

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

// blockKey identifies one staged block of one file.
type blockKey struct {
	ino   vfs.Ino
	block int64 // index of blockSize units within the file's tape extent
}

// stagedBlock is a resident migration-cache block.
type stagedBlock struct {
	key     blockKey
	diskOff int64 // where in the migration area the block lives
}

// Stager is the migrating HSM layer.
type Stager struct {
	k         *vfs.Kernel
	cfg       Config
	blockSize int64 // blockPages pages

	areaStart int64 // disk offset of the migration area
	slots     int   // total block slots
	freeSlots []int64

	lru   *list.List // *stagedBlock, front = most recently used
	index map[blockKey]*list.Element
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
	s := &Stager{
		k:         k,
		cfg:       cfg,
		blockSize: blockSize,
		areaStart: area,
		slots:     slots,
		lru:       list.New(),
		index:     make(map[blockKey]*list.Element),
	}
	for i := 0; i < slots; i++ {
		s.freeSlots = append(s.freeSlots, area+int64(i)*blockSize)
	}
	k.SetStager(s, cfg.Tape)
	return s, nil
}

// IsStaged reports whether the block containing devOff of the inode is in
// the migration cache (without touching recency).
func (s *Stager) IsStaged(ino *vfs.Inode, devOff int64) bool {
	_, ok := s.index[s.keyFor(ino, devOff)]
	return ok
}

func (s *Stager) keyFor(ino *vfs.Inode, devOff int64) blockKey {
	return blockKey{ino: ino.Ino(), block: (devOff - ino.Extent()) / s.blockSize}
}

// DeviceFor implements vfs.Stager.
func (s *Stager) DeviceFor(ino *vfs.Inode, devOff int64) device.ID {
	if s.IsStaged(ino, devOff) {
		return s.cfg.Disk
	}
	return s.cfg.Tape
}

// Fetch implements vfs.Stager: serve each touched block from the disk
// stage, migrating it from tape first if needed. A fault on the tape or
// disk surfaces as the error; blocks migrated before the fault stay
// staged, so the kernel's retry of the fetch serves them from disk and
// resumes migration at the failed block.
func (s *Stager) Fetch(ino *vfs.Inode, devOff, length int64) error {
	if length <= 0 {
		return nil
	}
	disk := s.k.Devices.Get(s.cfg.Disk)
	tape := s.k.Devices.Get(s.cfg.Tape)

	end := devOff + length
	for off := devOff; off < end; {
		key := s.keyFor(ino, off)
		blockStart := ino.Extent() + key.block*s.blockSize
		blockEnd := blockStart + s.blockSize
		// Clamp the block to the file's tape extent end is unnecessary:
		// reads never extend past the file, and staging a ragged tail
		// block just stages fewer meaningful bytes.
		readEnd := end
		if readEnd > blockEnd {
			readEnd = blockEnd
		}

		if e, ok := s.index[key]; ok {
			// Staged: read the needed range from the migration area.
			b := e.Value.(*stagedBlock)
			if err := device.ReadErr(disk, s.k.Clock, b.diskOff+(off-blockStart), readEnd-off); err != nil {
				return err
			}
			s.lru.MoveToFront(e)
		} else {
			// Migrate the whole block from tape, then it is in the disk
			// cache (the migration write itself makes the bytes
			// available; no extra disk read is charged).
			slot, err := s.takeSlot(ino, key.block)
			if err != nil {
				return err
			}
			migrateLen := s.blockSize
			if blockEnd > ino.Extent()+ino.Size() {
				// Ragged final block: only the file's bytes exist.
				migrateLen = ino.Extent() + ino.Size() - blockStart
			}
			if err := device.ReadErr(tape, s.k.Clock, blockStart, migrateLen); err != nil {
				s.freeSlots = append(s.freeSlots, slot)
				return err
			}
			if err := device.WriteErr(disk, s.k.Clock, slot, migrateLen); err != nil {
				s.freeSlots = append(s.freeSlots, slot)
				return err
			}
			e := s.lru.PushFront(&stagedBlock{key: key, diskOff: slot})
			s.index[key] = e
		}
		off = readEnd
	}
	return nil
}

// takeSlot returns a free migration slot, evicting the LRU block if none.
// The error (no slots and nothing to evict) is defensive — New guarantees
// at least one slot — but reported with context instead of panicking now
// that the fetch path is fallible.
func (s *Stager) takeSlot(ino *vfs.Inode, block int64) (int64, error) {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot, nil
	}
	victim := s.lru.Back()
	if victim == nil {
		return 0, fmt.Errorf("hsm: staging ino %d block %d: no slots and nothing to evict (%d slots, capacity %d)",
			ino.Ino(), block, s.slots, s.cfg.Capacity)
	}
	b := victim.Value.(*stagedBlock)
	s.lru.Remove(victim)
	delete(s.index, b.key)
	return b.diskOff, nil
}
