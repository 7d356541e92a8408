package vfs

import (
	"fmt"
	"sort"
)

// ReadDir lists the names in a directory, sorted.
func (k *Kernel) ReadDir(path string) ([]string, error) {
	n, err := k.lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("vfs: %q: %w", path, ErrNotDir)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
