package main

import (
	"encoding/binary"
	"math/rand"
)

// content generates file bytes from the workload seed. A file's bytes
// are a window of one seeded random pool, chosen by the file's id,
// with the id and the chunk index stamped every stampEvery bytes, so
// two files never share content and a block served out of place fails
// the comparison.
type content struct {
	pool []byte
	max  int
}

const stampEvery = 64 << 10

func newContent(seed int64, maxFile int) *content {
	pool := make([]byte, maxFile+(1<<20))
	rand.New(rand.NewSource(seed)).Read(pool)
	return &content{pool: pool, max: maxFile}
}

// fill writes file id's first len(dst) bytes into dst.
func (g *content) fill(dst []byte, id uint64) {
	off := int((id * 0x9E3779B97F4A7C15) >> 44) // 0 .. 1 MiB
	copy(dst, g.pool[off:off+len(dst)])
	for at, chunk := 0, uint64(0); at+16 <= len(dst); at, chunk = at+stampEvery, chunk+1 {
		binary.LittleEndian.PutUint64(dst[at:], id)
		binary.LittleEndian.PutUint64(dst[at+8:], chunk)
	}
}
