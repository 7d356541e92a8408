package vfs

import (
	"fmt"
	"sort"
	"strings"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/workload"
)

// Inode is a file or directory in the simulated tree.
type Inode struct {
	ino   Ino
	name  string
	isDir bool

	// directory state
	children map[string]*Inode

	// file state
	dev      device.ID
	extent   int64 // byte offset of the file's data on the device
	reserved int64 // bytes of device space reserved at extent
	size     int64
	content  *workload.Content
	opens    int // Files open on it, not yet closed
}

// Ino returns the inode number.
func (n *Inode) Ino() Ino { return n.ino }

// Name returns the last path element.
func (n *Inode) Name() string { return n.name }

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.isDir }

// Size returns the file size in bytes (0 for directories).
func (n *Inode) Size() int64 { return n.size }

// Device returns the device holding the file's data.
func (n *Inode) Device() device.ID { return n.dev }

// Extent returns the byte offset of the file's data on its device.
func (n *Inode) Extent() int64 { return n.extent }

// fill reads the page's backing bytes into buf (one page long). A zero page
// — content-free, or a hole a write past EOF left behind while the written
// page itself is still dirty in the cache — is cleared.
func (n *Inode) fill(page int64, buf []byte) {
	if n.content.ZeroPage(page) {
		clear(buf)
	} else {
		n.content.ReadPage(page, buf)
	}
}

// loadPage returns the page's backing bytes in a buffer from the arena, or
// nil for a zero page: the cache holds that without a buffer until a write
// gives it one (writable), and a read of it clears the destination.
func (k *Kernel) loadPage(n *Inode, page int64) []byte {
	if n.content.ZeroPage(page) {
		return nil
	}
	buf := k.hostMem().take()
	n.content.ReadPage(page, buf)
	return buf
}

// writable returns the data of resident page key for a write to mutate: a
// zero page held without a buffer first gets a cleared one.
func (k *Kernel) writable(key cache.Key, data []byte) []byte {
	if data == nil {
		data = k.hostMem().take()
		clear(data)
		k.cache.SetData(key, data)
	}
	return data
}

// checkPath rejects a path that is not absolute or that contains "..";
// nextPart walks the components of one that passes.
func checkPath(path string) error {
	if !strings.HasPrefix(path, "/") {
		return fmt.Errorf("vfs: path %q not absolute", path)
	}
	for p, rest, ok := nextPart(path); ok; p, rest, ok = nextPart(rest) {
		if p == ".." {
			return fmt.Errorf("vfs: path %q contains ..", path)
		}
	}
	return nil
}

// nextPart returns the first component of path that is neither empty nor
// ".", and what follows it; ok is false when there is none.
func nextPart(path string) (part, rest string, ok bool) {
	for path != "" {
		part, path, _ = strings.Cut(path, "/")
		if part != "" && part != "." {
			return part, path, true
		}
	}
	return "", "", false
}

// lookup resolves a path to an inode.
func (k *Kernel) lookup(path string) (*Inode, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	cur := k.root
	for p, rest, ok := nextPart(path); ok; p, rest, ok = nextPart(rest) {
		if !cur.isDir {
			return nil, fmt.Errorf("vfs: %q: %w", path, ErrNotDir)
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, fmt.Errorf("vfs: %q: %w", path, ErrNotExist)
		}
		cur = next
	}
	return cur, nil
}

// lookupDir resolves the parent directory of path and returns it with the
// final element.
func (k *Kernel) lookupDir(path string) (*Inode, string, error) {
	if err := checkPath(path); err != nil {
		return nil, "", err
	}
	name, rest, ok := nextPart(path)
	if !ok {
		return nil, "", fmt.Errorf("vfs: %q: %w", path, ErrExist)
	}
	cur := k.root
	for next, after, more := nextPart(rest); more; next, after, more = nextPart(after) {
		child, ok := cur.children[name]
		if !ok {
			return nil, "", fmt.Errorf("vfs: %q: %w", path, ErrNotExist)
		}
		if !child.isDir {
			return nil, "", fmt.Errorf("vfs: %q: %w", path, ErrNotDir)
		}
		cur, name = child, next
	}
	return cur, name, nil
}

// MkdirAll creates a directory and any missing parents.
func (k *Kernel) MkdirAll(path string) error {
	if err := checkPath(path); err != nil {
		return err
	}
	cur := k.root
	for p, rest, ok := nextPart(path); ok; p, rest, ok = nextPart(rest) {
		next, found := cur.children[p]
		if !found {
			next = k.addInode(&Inode{name: p, isDir: true, children: map[string]*Inode{}})
			cur.children[p] = next
		} else if !next.isDir {
			return fmt.Errorf("vfs: %q: %w", path, ErrNotDir)
		}
		cur = next
	}
	return nil
}

// Create makes a file at path whose bytes are content and whose data is
// allocated contiguously on dev. The parent directory must exist.
func (k *Kernel) Create(path string, dev device.ID, content *workload.Content) (*Inode, error) {
	if content == nil {
		return nil, fmt.Errorf("vfs: Create %q with nil content", path)
	}
	if content.PageSize() != k.cfg.PageSize {
		return nil, fmt.Errorf("vfs: content page size %d != kernel %d", content.PageSize(), k.cfg.PageSize)
	}
	parent, name, err := k.lookupDir(path)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.children[name]; ok {
		return nil, fmt.Errorf("vfs: %q: %w", path, ErrExist)
	}
	// Reserve space for the current content plus room to grow to the next
	// page boundary; growing files re-extend below.
	reserve := content.Pages() * int64(k.cfg.PageSize)
	if reserve == 0 {
		reserve = int64(k.cfg.PageSize)
	}
	extent, err := k.allocExtent(dev, reserve)
	if err != nil {
		return nil, err
	}
	n := k.addInode(&Inode{
		name:     name,
		dev:      dev,
		extent:   extent,
		reserved: reserve,
		size:     content.Size(),
		content:  content,
	})
	parent.children[name] = n
	content.KeepIn(&k.hostMem().store)
	return n, nil
}

// CreateEmpty makes a zero-length writable file on dev.
func (k *Kernel) CreateEmpty(path string, dev device.ID) (*Inode, error) {
	return k.Create(path, dev, workload.New(0, k.cfg.PageSize, nil))
}

// Remove deletes a file or empty directory, invalidating its cached pages.
// Once no File holds the file open, its content's written pages go back to
// the store (workload.Content.Release).
func (k *Kernel) Remove(path string) error {
	parent, name, err := k.lookupDir(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("vfs: %q: %w", path, ErrNotExist)
	}
	if n.isDir && len(n.children) > 0 {
		return fmt.Errorf("vfs: %q: directory not empty", path)
	}
	delete(parent.children, name)
	k.inodes[n.ino] = nil
	if !n.isDir {
		// Dropping pages of a deleted file discards dirty data too: the
		// eviction callback checks the inode table and finds it gone.
		k.cache.InvalidateFile(uint64(n.ino))
		k.drainWritebacksSync()
		if n.opens == 0 {
			n.content.Release()
		}
	}
	return nil
}

// Stat returns the inode at path.
func (k *Kernel) Stat(path string) (*Inode, error) { return k.lookup(path) }

// Walk visits path and everything under it in depth-first sorted order,
// calling fn with each absolute path and inode. This is the primitive
// find(1) is built on.
func (k *Kernel) Walk(path string, fn func(p string, n *Inode) error) error {
	n, err := k.lookup(path)
	if err != nil {
		return err
	}
	clean := ""
	for p, rest, ok := nextPart(path); ok; p, rest, ok = nextPart(rest) {
		clean += "/" + p
	}
	if clean == "" {
		clean = "/"
	}
	return k.walk(clean, n, fn)
}

func (k *Kernel) walk(path string, n *Inode, fn func(string, *Inode) error) error {
	if err := fn(path, n); err != nil {
		return err
	}
	if !n.isDir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := n.children[name]
		childPath := path + "/" + name
		if path == "/" {
			childPath = "/" + name
		}
		if err := k.walk(childPath, child, fn); err != nil {
			return err
		}
	}
	return nil
}

// PageResident reports whether the given page of the inode is in the
// buffer cache, without perturbing replacement state. This is the kernel
// primitive behind FSLEDS_GET.
func (k *Kernel) PageResident(n *Inode, page int64) bool {
	return k.cache.Contains(cache.Key{File: uint64(n.ino), Page: page})
}
