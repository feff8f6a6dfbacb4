package blob

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// FS is the filesystem Backend: one framed file per key under a root
// directory, fanned out into 256 subdirectories by the key's first hex byte
// so a large corpus never piles a million entries into one directory. The
// root can be a local path or a shared mount (NFS, SMB, a fuse'd object
// store) — writes are tmp-file + rename, which is atomic on POSIX
// filesystems and gives NFS readers the all-or-nothing visibility the
// Backend contract requires.
type FS struct {
	root string

	// corruptReadHook, when non-nil, runs after Get has read a frame that
	// fails verification and before it decides whether to delete the file.
	// Test-only: it lets the corrupt-delete race be forced deterministically
	// (a concurrent Put renaming a good blob into place at exactly that
	// moment).
	corruptReadHook func(key string)
}

// NewFS opens (creating if needed) a filesystem backend rooted at dir and
// sweeps tmp orphans: a crash between CreateTemp and the rename leaves a
// "<key>.tmp*" file behind, and nothing else would ever delete it.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: empty backend directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	f := &FS{root: dir}
	f.sweepOrphans()
	return f, nil
}

// sweepOrphans removes leftover tmp files from crashed writes, in the root
// (where older versions created them) and in the fan-out subdirectories
// (where Put creates them now). Best-effort: an orphan that cannot be
// removed is left for the next open.
func (f *FS) sweepOrphans() {
	sweepDir := func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if !e.IsDir() && strings.Contains(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	sweepDir(f.root)
	dirs, err := os.ReadDir(f.root)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if d.IsDir() && len(d.Name()) == 2 {
			sweepDir(filepath.Join(f.root, d.Name()))
		}
	}
}

// path fans key out under root: <root>/<key[0:2]>/<key>.blob.
func (f *FS) path(key string) string {
	return filepath.Join(f.root, key[:2], key+".blob")
}

// Put implements Backend. The frame is written to a tmp file in the key's
// own fan-out subdirectory and renamed into place: same-directory rename is
// atomic even when the fan-out dir is a different filesystem than an
// ill-chosen tmp location would be, and a crash mid-write leaves the orphan
// where NewFS's sweep finds it — never a truncated blob under a valid key.
func (f *FS) Put(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return ErrBadKey
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(f.path(key)), 0o755); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(f.path(key)), key+".tmp*")
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(EncodeFrame(payload)); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("blob: %w", err)
	}
	if err := os.Rename(name, f.path(key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

// Get implements Backend: read, verify the frame, and on any frame failure
// delete the damaged file and report ErrCorrupt so the caller recomputes
// instead of serving garbage — a corrupt blob must never outlive its first
// read, or it would poison every replica that trusts the shared tier.
//
// The delete is conditional: between reading the corrupt frame and
// removing it, a concurrent Put can atomically rename a *good* blob into
// place (publishes are concurrent across the whole fleet), and an
// unconditional remove would destroy the fresh copy. The file's size and
// mtime are captured from the same open handle the bytes came from and
// compared against the path just before removal — if they changed, the
// corpse we read is already gone and the new blob is left alone.
func (f *FS) Get(ctx context.Context, key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, ErrBadKey
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	file, err := os.Open(f.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	readInfo, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("blob: %w", err)
	}
	b, err := io.ReadAll(file)
	file.Close()
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	payload, ok := DecodeFrame(b)
	if !ok {
		if f.corruptReadHook != nil {
			f.corruptReadHook(key)
		}
		f.removeIfUnchanged(key, readInfo)
		return nil, ErrCorrupt
	}
	return payload, nil
}

// removeIfUnchanged deletes the key's file only if its size and mtime still
// match the handle the corrupt bytes were read from; a mismatch means a
// concurrent Put already replaced it and the replacement must survive.
func (f *FS) removeIfUnchanged(key string, readInfo fs.FileInfo) {
	now, err := os.Stat(f.path(key))
	if err != nil {
		return // already gone (or unreadable): nothing safe to do
	}
	if now.Size() != readInfo.Size() || !now.ModTime().Equal(readInfo.ModTime()) {
		return
	}
	os.Remove(f.path(key))
}

// Delete implements Backend.
func (f *FS) Delete(ctx context.Context, key string) error {
	if !ValidKey(key) {
		return ErrBadKey
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.Remove(f.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

// Entry is one stored blob as Entries reports it.
type Entry struct {
	Key     string
	Size    int64     // framed size on disk: FramedSize of the payload
	ModTime time.Time // when the blob was last written
}

// Entries returns every stored blob with its framed size and mtime, in
// unspecified order: the corpus a size-budgeted tier rebuilds its LRU
// index from. A blob deleted while the walk runs is skipped.
func (f *FS) Entries(ctx context.Context) ([]Entry, error) {
	var out []Entry
	err := f.walk(ctx, func(key string, e fs.DirEntry) {
		if info, err := e.Info(); err == nil {
			out = append(out, Entry{Key: key, Size: info.Size(), ModTime: info.ModTime()})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// List implements Backend.
func (f *FS) List(ctx context.Context) ([]string, error) {
	var keys []string
	if err := f.walk(ctx, func(key string, _ fs.DirEntry) { keys = append(keys, key) }); err != nil {
		return nil, err
	}
	return keys, nil
}

// walk calls fn for every well-formed key found under the fan-out
// directories. Tmp orphans and stray files are skipped, not errors.
func (f *FS) walk(ctx context.Context, fn func(key string, e fs.DirEntry)) error {
	dirs, err := os.ReadDir(f.root)
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	for _, d := range dirs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !d.IsDir() || len(d.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(f.root, d.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			key, ok := strings.CutSuffix(e.Name(), ".blob")
			if ok && ValidKey(key) && strings.HasPrefix(key, d.Name()) {
				fn(key, e)
			}
		}
	}
	return nil
}
