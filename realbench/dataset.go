package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

// fsBlock is the FSBlockSize every data set is written with, and so the
// cache-block size of every server in front of it.
const fsBlock = 64 << 10

// dataset describes one multifile: ranks task-local streams of rankBytes
// each, written as seeded records of recMin..recMax bytes into nfiles
// physical files.
type dataset struct {
	ranks     int
	nfiles    int
	rankBytes int64
	recMin    int64
	recMax    int64
	chunk     int64 // ParOpen ChunkSize
}

func (d dataset) total() int64 { return int64(d.ranks) * d.rankBytes }

// records returns rank's record sizes: a seeded log-uniform mix summing to
// exactly rankBytes.
func (d dataset) records(seed int64, rank int) []int64 {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)<<20 ^ uint64(rank)))))
	var out []int64
	for left := d.rankBytes; left > 0; {
		n := min(logUniform(rng, d.recMin, d.recMax), left)
		out = append(out, n)
		left -= n
	}
	return out
}

func (d dataset) options() *sion.Options {
	return &sion.Options{ChunkSize: d.chunk, FSBlockSize: fsBlock, NFiles: d.nfiles, BufferSize: sion.BufferAuto}
}

// cycle is the outcome of one collective write or read of a data set.
type cycle struct {
	wall  time.Duration   // first ParOpen entry to last Close return
	open  time.Duration   // slowest rank's ParOpen
	close time.Duration   // slowest rank's Close
	busy  time.Duration   // summed Write/Read call time over ranks
	skew  time.Duration   // mean over ParOpen and Close of slowest minus fastest rank
	maxIO time.Duration   // slowest rank's summed Write/Read call time
	lats  []time.Duration // every Write/Read call
	bytes int64           // payload moved
	ops   int64           // Write/Read calls attempted
	fails int64           // calls that failed, came up short or mismatched
	err   error           // first ParOpen/Close failure
}

// rankRun is one rank's share of a cycle.
type rankRun struct {
	start, opened, closing, end time.Time
	busy                        time.Duration
	lats                        []time.Duration
	bytes, fails                int64
	err                         error
}

// writeDataset writes d's payload as multifile name through core.ParOpen
// in write mode with one Write call per record; Close is durable.
func writeDataset(fsys fsio.FileSystem, name string, d dataset, pl *payload) cycle {
	return runRanks(d, func(c *mpi.Comm, r *rankRun) {
		recs := d.records(pl.seed, c.Rank())
		r.start = time.Now()
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, d.options())
		r.opened = time.Now()
		if err != nil {
			r.err, r.closing, r.end = err, r.opened, r.opened
			return
		}
		r.lats = make([]time.Duration, 0, len(recs))
		var off int64
		for _, n := range recs {
			t := time.Now()
			w, err := f.Write(pl.at(c.Rank(), off, int(n)))
			dt := time.Since(t)
			r.busy += dt
			r.lats = append(r.lats, dt)
			if err != nil || int64(w) != n {
				r.fails++
			}
			off += n
			r.bytes += int64(w)
		}
		r.closing = time.Now()
		r.err = f.Close()
		r.end = time.Now()
	})
}

// readDataset reads multifile name back through core.ParOpen in read mode
// with one Read call per record and verifies every byte after the call's
// timing stops.
func readDataset(fsys fsio.FileSystem, name string, d dataset, pl *payload) cycle {
	return runRanks(d, func(c *mpi.Comm, r *rankRun) {
		recs := d.records(pl.seed, c.Rank())
		r.start = time.Now()
		f, err := sion.ParOpen(c, fsys, name, sion.ReadMode, d.options())
		r.opened = time.Now()
		if err != nil {
			r.err, r.closing, r.end = err, r.opened, r.opened
			return
		}
		buf := make([]byte, d.recMax)
		r.lats = make([]time.Duration, 0, len(recs))
		var off int64
		for _, n := range recs {
			t := time.Now()
			got, err := io.ReadFull(f, buf[:n])
			dt := time.Since(t)
			r.busy += dt
			r.lats = append(r.lats, dt)
			if err != nil || int64(got) != n || !pl.verify(buf[:n], c.Rank(), off) {
				r.fails++
			}
			off += n
			r.bytes += int64(got)
		}
		if !f.EOF() {
			r.fails++
		}
		r.closing = time.Now()
		r.err = f.Close()
		r.end = time.Now()
	})
}

// runRanks runs body on d.ranks mpi.Run goroutines and folds their
// rankRuns into one cycle.
func runRanks(d dataset, body func(*mpi.Comm, *rankRun)) cycle {
	runs := make([]rankRun, d.ranks)
	var once sync.Once
	var first error
	mpi.Run(d.ranks, func(c *mpi.Comm) {
		c.Barrier()
		body(c, &runs[c.Rank()])
		if err := runs[c.Rank()].err; err != nil {
			once.Do(func() { first = fmt.Errorf("rank %d: %w", c.Rank(), err) })
		}
	})
	cy := cycle{err: first}
	start, end := runs[0].start, runs[0].end
	minOpen, maxOpen := runs[0].opened.Sub(runs[0].start), time.Duration(0)
	minClose, maxClose := runs[0].end.Sub(runs[0].closing), time.Duration(0)
	for _, r := range runs {
		if r.start.Before(start) {
			start = r.start
		}
		if r.end.After(end) {
			end = r.end
		}
		o, cl := r.opened.Sub(r.start), r.end.Sub(r.closing)
		minOpen, maxOpen = min(minOpen, o), max(maxOpen, o)
		minClose, maxClose = min(minClose, cl), max(maxClose, cl)
		cy.busy += r.busy
		cy.maxIO = max(cy.maxIO, r.busy)
		cy.lats = append(cy.lats, r.lats...)
		cy.bytes += r.bytes
		cy.ops += int64(len(r.lats))
		cy.fails += r.fails
	}
	cy.wall = end.Sub(start)
	cy.open, cy.close = maxOpen, maxClose
	cy.skew = (maxOpen - minOpen + maxClose - minClose) / 2
	return cy
}
