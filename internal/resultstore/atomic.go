package resultstore

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path via a temporary file in the same
// directory followed by os.Rename, so readers never observe a partially
// written file and an interrupted writer never leaves truncated content
// at the destination. The temporary file is fsynced before the rename,
// and the parent directory is fsynced after it: renaming updates a
// directory entry, and on a host crash an unsynced directory can lose
// the entry even though the file's blocks are on disk — the published
// result would silently vanish. Only after both syncs is the publish
// durable. A stale temp file from a crash is harmless — it is never the
// destination name. It creates path's directory first when it is
// missing, so a command's output flag can name a directory of its own.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFileAtomic(osFS{}, path, data, perm)
}

// WriteFileAtomicFS is WriteFileAtomic over an explicit filesystem, for
// callers outside this package (the provenance ledger) that publish
// through the same — possibly chaos-wrapped — FS as the store, so fault
// injection reaches their writes too. fsys == nil means the real
// filesystem.
func WriteFileAtomicFS(fsys FS, path string, data []byte, perm os.FileMode) error {
	if fsys == nil {
		fsys = osFS{}
	}
	return writeFileAtomic(fsys, path, data, perm)
}

// writeFileAtomic is WriteFileAtomic over an explicit filesystem — the
// seam the store threads its (possibly chaos-wrapped) FS through.
func writeFileAtomic(fsys FS, path string, data []byte, perm os.FileMode) error {
	if err := renameIntoPlace(fsys, path, data, perm); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// renameIntoPlace is writeFileAtomic without the closing directory
// fsync: once it returns nil, data is live at path.
func renameIntoPlace(fsys FS, path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		fsys.Remove(name)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(name)
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		fsys.Remove(name)
		return err
	}
	return nil
}
