package tsq

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"netenergy/internal/trace"
)

// Catalog is one segment directory's live files: the list pass 1 runs on.
// QueryDir lists the directory afresh for each query. A process that
// writes the directory (ingestd) keeps one for its lifetime: it lists the
// directory once, at start, and then learns of every file from the writer
// itself — Add when a file's header is written, Seal when its footer is —
// so a query lists nothing and stats no segment file.
//
// The contract that makes that sound:
//
//   - only retention removes a segment file, and it names what it folded
//     in the rollup before it removes anything, so a catalog that sees the
//     rollup change drops those names (see Catalog.snapshot);
//   - a sealed file never changes;
//   - a file the writer did not make is seen after the process next
//     starts, when the listing finds it.
//
// Safe for concurrent use.
type Catalog struct {
	dir string

	mu    sync.Mutex
	files []catFile // by path
	roll  *rollupFile
	// rollID is the identity of the rollup file roll was parsed from, nil
	// when there is none: the file is read again only when it changes.
	rollID os.FileInfo
}

// catFile is one live file as a catalog knows it. Everything but path is
// what saves pass 1 from opening the file: device and start, from the
// header the writer wrote; and, sealed, the identity the Memo keys the
// file's index by.
type catFile struct {
	path   string
	device string // "" = not known: pass 1 reads the header
	start  trace.Timestamp

	// sealed is set, with size, mtime and ident, once the file has a
	// footer: from the writer's fstat before it closed the file, or from
	// the stat or descriptor pass 1 found the file's index under.
	sealed      bool
	size, mtime int64
	ident       string // segment.id
}

// open reports whether the writer still has the file open: its records
// all lie at or after its header's start, and it may still grow.
func (cf *catFile) open() bool { return cf.device != "" && !cf.sealed }

// OpenCatalog lists dir once and reads its rollup: the catalog a process
// that writes dir keeps for its lifetime.
func OpenCatalog(dir string) (*Catalog, error) {
	files, roll, info, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	return &Catalog{dir: dir, files: files, roll: roll, rollID: info}, nil
}

// listDir is the one listing of dir: every file a query reads, by path,
// minus the segments the rollup (read after the listing, so it names
// every listed file retention has already folded) lists as folded; and
// the rollup, with the identity of the file it was read from.
func listDir(dir string) ([]catFile, *rollupFile, os.FileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	roll, info, err := readRollup(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	folded := roll.folded()
	var files []catFile
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, ".tmp") {
			continue
		}
		if _, ok := folded[name]; ok {
			continue
		}
		files = append(files, catFile{path: filepath.Join(dir, name)})
	}
	return files, roll, info, nil // ReadDir sorts by name: files are by path
}

// Names is the name of every file the catalog lists and of every segment
// its rollup folded: every name the directory has given a segment.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for _, cf := range c.files {
		names = append(names, filepath.Base(cf.path))
	}
	if c.roll != nil {
		for _, f := range c.roll.Folded {
			names = append(names, f.Name)
		}
	}
	return names
}

// Add lists a file whose header the writer has just written: device and
// start are the header's, and the writer's first record is at start.
func (c *Catalog) Add(path, device string, start trace.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, found := c.find(path)
	cf := catFile{path: path, device: device, start: start}
	if found {
		c.files[i] = cf
		return
	}
	c.files = slices.Insert(c.files, i, cf)
}

// Seal records that the file at path has its footer, and the size and
// mtime the writer's fstat saw before it closed the file.
func (c *Catalog) Seal(path string, size, mtime int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.find(path); found {
		cf := &c.files[i]
		cf.sealed, cf.size, cf.mtime = true, size, mtime
		cf.ident = (&segment{path: path, size: size, mtime: mtime}).id()
	}
}

// learn records what pass 1 found of a listed file: that it is sealed, its
// header, and the identity the Memo holds its index under.
func (c *Catalog) learn(seg *segment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.find(seg.path); found {
		c.files[i] = catFile{path: seg.path, device: seg.device, start: seg.start,
			sealed: true, size: seg.size, mtime: seg.mtime, ident: seg.ident}
	}
}

// find is the index of path in c.files, or where it would go. c.mu is held.
func (c *Catalog) find(path string) (int, bool) {
	return slices.BinarySearchFunc(c.files, path, func(cf catFile, path string) int {
		return cmp.Compare(cf.path, path)
	})
}

// snapshot is what one query runs on: a copy of the live files, and the
// rollup. The rollup is parsed again only when its file's identity —
// inode, size and mtime; each write is a new inode, since it is renamed
// into place — has changed, and then the segments it lists as folded leave
// the catalog.
func (c *Catalog) snapshot() ([]catFile, *rollupFile, error) {
	info, err := os.Stat(filepath.Join(c.dir, rollupName))
	if errors.Is(err, os.ErrNotExist) {
		info, err = nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !sameIdentity(info, c.rollID) {
		// Read under the lock, so that no query installs a rollup older
		// than one another has installed. It changes once a retention pass.
		roll, info, err := readRollup(c.dir)
		if err != nil {
			return nil, nil, err
		}
		c.roll, c.rollID = roll, info
		if folded := roll.folded(); len(folded) > 0 {
			c.files = slices.DeleteFunc(c.files, func(cf catFile) bool {
				_, ok := folded[filepath.Base(cf.path)]
				return ok
			})
		}
	}
	return slices.Clone(c.files), c.roll, nil
}

// sameIdentity reports whether a and b (nil: no file) describe one file
// at one size and mtime.
func sameIdentity(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// QueryCatalog runs q over the catalog's live files and its rollup, as
// QueryDir does over a fresh listing of the directory.
func (e Engine) QueryCatalog(c *Catalog, q Query) (*Result, error) {
	files, roll, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	return e.queryRollup(c, files, roll, q)
}
