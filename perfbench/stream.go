package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/integration"
)

// stream: large-file writes beside whole-file reads on an
// unthrottled 3-worker cluster. Each client writes one file, then
// reads back ReadsPerWrite of its earlier ones, deleting its oldest
// file once it holds more than Window, so the working set stays inside
// the media. Per-byte and per-block data-path costs dominate; the
// master does a few RPCs per block. Replicas are pinned to memory
// media: on disk-backed media, file-system journal and writeback
// stalls of a shared VM disk moved the figures by up to a third from
// run to run.
type stream struct {
	base
	per []*streamClient
}

type streamClient struct {
	live            []uint64 // file ids, oldest first
	next            uint64
	step            int
	data, got, want []byte
}

func startStream(dir string, sz sizes, seed int64) (workload, error) {
	cfg := integration.DefaultClusterConfig(dir)
	cfg.NumWorkers = 3
	cfg.BlockSize = sz.BlockBytes
	cfg.MemCapacity = sz.MemBytes
	cfg.SSDCapacity, cfg.HDDCapacity = 0, 0
	s := &stream{}
	if err := s.start(cfg, sz, seed); err != nil {
		return nil, err
	}
	s.rv = core.NewReplicationVector(sz.Replicas, 0, 0, 0, 0)
	for i := range s.fss {
		s.per = append(s.per, &streamClient{
			next: 1,
			data: make([]byte, sz.FileBytes),
			got:  make([]byte, sz.FileBytes+1),
			want: make([]byte, sz.FileBytes),
		})
		if err := s.fss[0].Mkdir(s.dir(i), true); err != nil {
			s.close()
			return nil, err
		}
	}
	err := s.each(func(c *clientRun) error {
		sc := s.per[c.id]
		for len(sc.live) < sz.Window {
			if err := s.write(c, sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stream) dir(client int) string { return fmt.Sprintf("/stream/c%d", client) }

func (s *stream) path(client int, id uint64) string {
	return fmt.Sprintf("%s/f%06d", s.dir(client), id)
}

// write puts the client's next file, untimed (set-up).
func (s *stream) write(c *clientRun, sc *streamClient) error {
	id := sc.next
	sc.next++
	s.gen.fill(sc.data, id)
	if err := putFile(c, s.fss[c.id], s.path(c.id, id), sc.data, s.rv); err != nil {
		return err
	}
	sc.live = append(sc.live, id)
	return nil
}

func (s *stream) op(c *clientRun) {
	sc := s.per[c.id]
	fs := s.fss[c.id]
	sc.step++
	if sc.step%(s.sz.ReadsPerWrite+1) == 1 || len(sc.live) == 0 {
		id := sc.next
		sc.next++
		path := s.path(c.id, id)
		s.gen.fill(sc.data, id)
		if c.timed("write", func() error { return putFile(c, fs, path, sc.data, s.rv) }) {
			c.wrBytes += int64(len(sc.data))
			sc.live = append(sc.live, id)
		}
		if len(sc.live) > s.sz.Window {
			old := s.path(c.id, sc.live[0])
			if c.timed("delete", func() error { return deletePath(c, fs, old) }) {
				sc.live = sc.live[1:]
			}
		}
		return
	}
	id := sc.live[c.rng.Intn(len(sc.live))]
	var got []byte
	if c.timed("read", func() (err error) {
		got, err = getFile(c, fs, s.path(c.id, id), sc.got)
		return err
	}) {
		c.readBytes += int64(len(got))
		s.expect(sc.want, id)
		if !bytes.Equal(got, sc.want) {
			c.problem("stream: %s read back %d bytes that differ from what was written", s.path(c.id, id), len(got))
		}
	}
}

// check lists every client's directory against the model and reads
// each live file back once more.
func (s *stream) check() []string {
	var problems []string
	c := &clientRun{}
	for i, sc := range s.per {
		entries, err := s.fss[0].List(s.dir(i))
		if err != nil {
			problems = append(problems, fmt.Sprintf("stream: list %s: %v", s.dir(i), err))
			continue
		}
		var listed, model []string
		for _, e := range entries {
			listed = append(listed, e.Path[strings.LastIndexByte(e.Path, '/')+1:])
		}
		for _, id := range sc.live {
			p := s.path(i, id)
			model = append(model, p[strings.LastIndexByte(p, '/')+1:])
			got, err := getFile(c, s.fss[0], p, sc.got)
			s.expect(sc.want, id)
			if err != nil || !bytes.Equal(got, sc.want) {
				problems = append(problems, fmt.Sprintf("stream: final read-back of %s does not match (err=%v)", p, err))
			}
		}
		sort.Strings(listed)
		sort.Strings(model)
		if strings.Join(listed, ",") != strings.Join(model, ",") {
			problems = append(problems, fmt.Sprintf("stream: %s holds %v, model says %v", s.dir(i), listed, model))
		}
	}
	return problems
}

func (s *stream) rotate(int)            {}
func (s *stream) hotPaths(int) []string { return nil }

// base is what the data workloads share: the cluster, one FileSystem
// per client, the content generator and the unspecified-tier vector.
type base struct {
	c   *integration.Cluster
	fss []*client.FileSystem
	sz  sizes
	gen *content
	rv  core.ReplicationVector
}

func (b *base) start(cfg integration.ClusterConfig, sz sizes, seed int64) error {
	c, err := integration.StartCluster(cfg)
	if err != nil {
		return err
	}
	b.c, b.sz = c, sz
	b.rv = core.ReplicationVectorFromFactor(max(sz.Replicas, 1))
	if sz.FileBytes > 0 {
		b.gen = newContent(seed, int(sz.FileBytes))
	}
	for i := 0; i < sz.Clients; i++ {
		fs, err := c.Client("")
		if err != nil {
			b.close()
			return err
		}
		b.fss = append(b.fss, fs)
	}
	return nil
}

// each runs fn once per client, concurrently, with an untraced
// clientRun, and returns the first error.
func (b *base) each(fn func(c *clientRun) error) error {
	errs := make(chan error, len(b.fss))
	for i := range b.fss {
		go func(i int) { errs <- fn(&clientRun{id: i}) }(i)
	}
	var first error
	for range b.fss {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// expect fills want with file id's bytes as the generator wrote them.
func (b *base) expect(want []byte, id uint64) {
	b.gen.fill(want, id)
	if b.sz.corruptExpected {
		want[len(want)/2] ^= 0xff
	}
}

func (b *base) cluster() *integration.Cluster { return b.c }
func (b *base) clients() []*client.FileSystem { return b.fss }

func (b *base) close() {
	for _, fs := range b.fss {
		fs.Close()
	}
	if b.c != nil {
		b.c.Close()
	}
}

func tierName(t core.StorageTier) string { return strings.ToLower(t.String()) }
