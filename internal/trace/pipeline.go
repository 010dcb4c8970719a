package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"hddcart/internal/smart"
)

// The native decode is a three-stage pipeline. A producer reads the
// stream into newline-aligned blocks, each tagged with the number of
// lines before it. Workers split and parse whole blocks into rows. The
// merge, run by Next on the caller's goroutine, takes the blocks back in
// stream order, parsing any that no worker has claimed yet itself.
// Blocks and their row slices are recycled, so the pipeline holds
// blocksPerWorker×workers blocks at most and allocates nothing per block
// once they have grown.

// blockSize is the size of a decode block; a longer line goes to
// encoding/csv.
const blockSize = 16 << 10

// blocksPerWorker bounds the blocks in flight (being read, parsed or
// merged) per worker.
const blocksPerWorker = 2

// block is one newline-aligned stretch of the stream and its parse.
type block struct {
	buf     []byte // backing store, the pipeline's block size
	data    []byte // the lines read; only the last may lack its '\n'
	line0   int    // lines of the stream before data
	cut     int    // data[:cut] is parsed
	cutLine int    // lines of the stream before data[cut:]
	decline bool   // data[cut:] goes to encoding/csv
	err     error  // the read error met after data
	rows    []row
	// claimed is set by whichever of a worker and the merge takes the
	// block first; the other leaves it alone.
	claimed atomic.Bool
	done    chan struct{} // a worker has parsed the block it claimed
}

// row is one parsed line of a block, or of encoding/csv once it has
// taken over.
type row struct {
	raw    []byte // the line without its '\n'
	end    int    // offset in the block's data after the line
	line   int    // input line
	serial []byte
	meta   DriveMeta // Failed and FailHour only
	rec    smart.Record
	err    error // the line's CSV error: a wrong field count
	perr   error // parseRow's error
}

// pipeline is the producer and the workers; the merge is Reader.
type pipeline struct {
	src  io.Reader
	size int
	// fields and views are the merge's scratch for the blocks it
	// parses itself.
	fields [][]byte
	views  []string
	free   chan *block // blocks ready for the producer
	work   chan *block // blocks for the workers, in stream order
	order  chan *block // the same blocks for the merge
	quit   chan struct{}
	wg     sync.WaitGroup
	// carry is the producer's partial last line; the merge reads it
	// once order is closed.
	carry []byte
}

// startPipeline starts a producer reading src in blocks of size bytes
// and workers parsing them.
func startPipeline(src io.Reader, size, workers int) *pipeline {
	n := blocksPerWorker * workers
	p := &pipeline{
		src:    src,
		size:   size,
		fields: make([][]byte, numColumns),
		views:  make([]string, numColumns),
		free:   make(chan *block, n),
		work:   make(chan *block, n),
		order:  make(chan *block, n),
		quit:   make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		p.free <- &block{done: make(chan struct{}, 1)}
	}
	p.wg.Add(1 + workers)
	//hddlint:ignore nakedgo the producer lives until EOF or quit; stop joins it through p.wg
	go p.produce()
	for i := 0; i < workers; i++ {
		//hddlint:ignore nakedgo workers live until the producer closes work; stop joins them through p.wg
		go p.parse()
	}
	return p
}

// produce fills free blocks with whole lines and sends them to the
// workers and the merge. It stops at the end of the stream, at a read
// error, at a line longer than a block, or when quit closes.
func (p *pipeline) produce() {
	defer p.wg.Done()
	defer close(p.order)
	defer close(p.work)
	line := 0
	for {
		var b *block
		select {
		case b = <-p.free:
		case <-p.quit:
			return
		}
		if b.buf == nil {
			b.buf = make([]byte, p.size)
		}
		n := copy(b.buf, p.carry)
		m, err := fill(p.src, b.buf[n:])
		data := b.buf[:n+m]
		i := bytes.LastIndexByte(data, '\n') + 1
		b.data, b.line0, b.cut, b.decline, b.err, b.rows = data, line, len(data), false, nil, b.rows[:0]
		p.carry = p.carry[:0]
		last := true
		switch {
		case err == io.EOF:
			if len(data) == 0 {
				return
			}
		case err != nil:
			// The merge drops the partial last line, as
			// bufio.Reader.ReadSlice does, unless it has already handed
			// the stream to encoding/csv.
			b.cut, b.err = i, err
		case i == 0:
			// The line does not fit in a block: all of it goes to
			// encoding/csv, so the producer stops here.
			b.cut, b.decline = 0, true
		default:
			p.carry = append(p.carry, data[i:]...)
			b.data, b.cut = data[:i], i
			last = false
		}
		line += bytes.Count(b.data, newline)
		// A worker may still hold a stale work entry for this block from
		// a round the merge claimed; it can claim the block only from
		// here on, when the block is whole.
		b.claimed.Store(false)
		p.work <- b
		p.order <- b
		if last {
			return
		}
	}
}

// fill reads into buf until it is full or the source fails.
func fill(src io.Reader, buf []byte) (int, error) {
	n, empty := 0, 0
	for n < len(buf) {
		m, err := src.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// parse is a worker: it parses the blocks it claims until the producer
// closes work.
func (p *pipeline) parse() {
	defer p.wg.Done()
	fields := make([][]byte, numColumns)
	views := make([]string, numColumns)
	for b := range p.work {
		if b.claimed.CompareAndSwap(false, true) {
			parseBlock(b, fields, views)
			b.done <- struct{}{}
		}
	}
}

// parseBlock parses the lines of b.data[:b.cut] into b.rows, declining
// from the first line that holds a quote or a CR. A canonical line is
// parsed by scanRow in one pass; any other is split by splitRow and
// parsed by parseRow, which reads its fields as string views of the
// block that it never keeps, so no field is copied.
func parseBlock(b *block, fields [][]byte, views []string) {
	data := b.data[:b.cut]
	if i := indexQuoteOrCR(data); i >= 0 {
		b.cut = bytes.LastIndexByte(data[:i], '\n') + 1
		b.decline = true
		data = data[:b.cut]
	}
	line := b.line0
	for off := 0; off < len(data); {
		raw := data[off:]
		if j := bytes.IndexByte(raw, '\n'); j >= 0 {
			raw = raw[:j]
		}
		off = min(off+len(raw)+1, len(data))
		line++
		if len(raw) == 0 {
			continue
		}
		b.rows = slices.Grow(b.rows, 1)[:len(b.rows)+1]
		rw := &b.rows[len(b.rows)-1]
		*rw = row{} // in place: appending a row literal copies ~500 bytes
		rw.raw, rw.end, rw.line = raw, off, line
		if scanRow(rw, raw) {
			continue
		}
		rw.meta, rw.rec = DriveMeta{}, smart.Record{} // a declined line starts over
		if !splitRow(fields, raw) {
			rw.err = &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
			continue
		}
		rw.serial = fields[0]
		for i, f := range fields {
			views[i] = unsafe.String(unsafe.SliceData(f), len(f))
		}
		rw.perr = parseRow(views, line, &rw.meta, &rw.rec)
	}
	b.cutLine = line
}

// indexQuoteOrCR returns the index of the first '"' or '\r' in b, or -1.
func indexQuoteOrCR(b []byte) int {
	q := bytes.IndexByte(b, '"')
	if q >= 0 {
		b = b[:q]
	}
	if c := bytes.IndexByte(b, '\r'); c >= 0 {
		return c
	}
	return q
}

// next recycles prev, if any, and returns the next block in stream order,
// parsed; nil when the producer has stopped. A block no worker has
// claimed yet the merge parses itself rather than wait for one.
func (p *pipeline) next(prev *block) *block {
	if prev != nil {
		p.free <- prev
	}
	b, ok := <-p.order
	if !ok {
		return nil
	}
	if b.claimed.CompareAndSwap(false, true) {
		parseBlock(b, p.fields, p.views)
	} else {
		<-b.done
	}
	return b
}

// stop ends the pipeline and returns once its goroutines have exited.
// With rest non-nil it appends the data of every block still in flight
// and the producer's partial last line to *rest, and returns the read
// error met after them, if any.
func (p *pipeline) stop(rest *[]byte) error {
	close(p.quit)
	var err error
	for b := range p.order {
		if !b.claimed.CompareAndSwap(false, true) {
			<-b.done
		}
		if rest != nil {
			*rest = append(*rest, b.data...)
			err = b.err
		}
	}
	if rest != nil {
		*rest = append(*rest, p.carry...)
	}
	p.wg.Wait()
	return err
}
