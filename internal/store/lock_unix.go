//go:build unix

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive, non-blocking flock on the directory's LOCK
// file. The lock lives as long as the returned file stays open, and the
// kernel drops it when the holding process dies, so a crash never leaves
// a directory locked.
func lockDir(path string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(path, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("store: data dir %s is in use by another open cluster", path)
		}
		return nil, fmt.Errorf("store: locking data dir %s: %w", path, err)
	}
	return f, nil
}
