package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/integration"
)

// namespace: an S-Live-style mix of empty-file metadata operations
// (stat, ls, create, rename, delete) against a persistent master.
// Creates and deletes are equally likely, so the namespace holds its
// size; it starts at sz.Files files, twice the master heat plane's
// file-map capacity, so every rename and delete pays the heat plane's
// scans and every create the edit-log append. No block is placed.
type namespace struct {
	base
	per []*nsClient
}

// nsClient is one client's slice of the generator's model: the files
// it owns, which of them came from a rename, and the paths it deleted
// most recently.
type nsClient struct {
	live    []string
	index   map[string]int
	renamed map[string]bool
	deleted []string
	next    int
}

// Op mix in percent, cumulative: stat 35, ls 10, create 18, rename 19,
// delete 18.
const (
	nsStat   = 35
	nsList   = nsStat + 10
	nsCreate = nsList + 18
	nsRename = nsCreate + 19
)

const nsDeletedKept = 256

func startNamespace(dir string, sz sizes, seed int64) (workload, error) {
	cfg := integration.ClusterConfig{
		NumWorkers:  1,
		MemCapacity: 8 << 20,
		MetaDir:     filepath.Join(dir, "meta"),
		Dir:         dir,
	}
	n := &namespace{}
	if err := n.start(cfg, sz, seed); err != nil {
		return nil, err
	}
	fail := func(err error) (workload, error) {
		n.close()
		return nil, err
	}
	for d := 0; d < sz.Dirs; d++ {
		if err := n.fss[0].Mkdir(n.dirPath(d), true); err != nil {
			return fail(err)
		}
	}
	for range n.fss {
		n.per = append(n.per, &nsClient{index: map[string]int{}, renamed: map[string]bool{}})
	}
	err := n.each(func(c *clientRun) error {
		nc := n.per[c.id]
		for i := c.id; i < sz.Files; i += len(n.fss) {
			p := fmt.Sprintf("%s/p%06d", n.dirPath(i%sz.Dirs), i)
			if err := n.create(c, p); err != nil {
				return err
			}
			nc.add(p)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return n, nil
}

func (n *namespace) dirPath(d int) string { return fmt.Sprintf("/ns/d%03d", d) }

// create makes an empty file with the library's default options.
func (n *namespace) create(c *clientRun, path string) error {
	w, err := createFile(c, n.fss[c.id], path, 0)
	if err != nil {
		return err
	}
	return closeWriter(c, w)
}

func (nc *nsClient) add(p string) {
	nc.index[p] = len(nc.live)
	nc.live = append(nc.live, p)
}

func (nc *nsClient) remove(i int) {
	p := nc.live[i]
	last := len(nc.live) - 1
	nc.live[i] = nc.live[last]
	nc.index[nc.live[i]] = i
	nc.live = nc.live[:last]
	delete(nc.index, p)
	delete(nc.renamed, p)
}

func (n *namespace) op(c *clientRun) {
	nc := n.per[c.id]
	fs := n.fss[c.id]
	r := c.rng.Intn(100)
	if len(nc.live) == 0 {
		r = nsList // only ls and create need no existing file
	}
	switch {
	case r < nsStat:
		p := nc.live[c.rng.Intn(len(nc.live))]
		c.timed("stat", func() error {
			st, err := statPath(c, fs, p)
			if err == nil && (st.IsDir || st.Length != 0) {
				c.problem("namespace: stat %s: dir=%v length=%d, want an empty file", p, st.IsDir, st.Length)
			}
			return err
		})
	case r < nsList:
		d := n.dirPath(c.rng.Intn(n.sz.Dirs))
		c.timed("ls", func() error { return listDir(c, fs, d) })
	case r < nsCreate:
		nc.next++
		p := fmt.Sprintf("%s/c%d-f%d", n.dirPath(c.rng.Intn(n.sz.Dirs)), c.id, nc.next)
		if c.timed("create", func() error { return n.create(c, p) }) {
			nc.add(p)
		}
	case r < nsRename:
		i := c.rng.Intn(len(nc.live))
		src := nc.live[i]
		nc.next++
		dst := fmt.Sprintf("%s/c%d-r%d", n.dirPath(c.rng.Intn(n.sz.Dirs)), c.id, nc.next)
		if c.timed("rename", func() error { return renamePath(c, fs, src, dst) }) {
			nc.remove(i)
			nc.add(dst)
			nc.renamed[dst] = true
		}
	default:
		i := c.rng.Intn(len(nc.live))
		p := nc.live[i]
		if c.timed("delete", func() error { return deletePath(c, fs, p) }) {
			nc.remove(i)
			if len(nc.deleted) == nsDeletedKept {
				nc.deleted = nc.deleted[1:]
			}
			nc.deleted = append(nc.deleted, p)
		}
	}
}

// check compares the final namespace with the model: the file count,
// a seeded sample of stats, every path a rename produced, and the
// most recently deleted paths.
func (n *namespace) check() []string {
	var problems []string
	fs := n.fss[0]
	want := 0
	for _, nc := range n.per {
		want += len(nc.live)
	}
	if n.sz.corruptExpected {
		want++
	}
	sum, err := fs.GetContentSummary("/ns")
	if err != nil {
		return []string{fmt.Sprintf("namespace: content summary: %v", err)}
	}
	if sum.Files != want {
		problems = append(problems, fmt.Sprintf("namespace: %d files, model says %d", sum.Files, want))
	}
	rng := rand.New(rand.NewSource(int64(want)))
	mustExist := func(p string) {
		st, err := fs.Stat(p)
		if err != nil || st.IsDir || st.Length != 0 {
			problems = append(problems, fmt.Sprintf("namespace: %s should be an empty file (err=%v)", p, err))
		}
	}
	for _, nc := range n.per {
		for i := 0; i < 128 && len(nc.live) > 0; i++ {
			mustExist(nc.live[rng.Intn(len(nc.live))])
		}
		for p := range nc.renamed {
			mustExist(p)
		}
		for _, p := range nc.deleted { // paths are never reused
			if _, err := fs.Stat(p); err == nil {
				problems = append(problems, fmt.Sprintf("namespace: deleted %s still resolves", p))
			}
		}
	}
	if len(problems) > 20 {
		problems = append(problems[:20], fmt.Sprintf("... and %d more", len(problems)-20))
	}
	return problems
}

func (n *namespace) rotate(int)            {}
func (n *namespace) hotPaths(int) []string { return nil }
