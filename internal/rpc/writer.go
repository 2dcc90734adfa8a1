package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
)

// The data plane below is the software stand-in for the paper's FPGA
// RPC offload (§5.3): where the hardware gathers frames in BRAM and
// DMAs them to the NIC in bursts, we pool frame buffers by size class,
// gather header+method+payload into one contiguous write for small
// frames, lend large caller payloads to the writer so they reach the
// socket without an intermediate copy (scatter-gather writev via
// net.Buffers), and coalesce the frames queued behind an in-flight
// write syscall into a single follow-up syscall.

// frameHdrLen is the fixed frame prefix: uint32 length, uint8 kind,
// uint64 callID, uint16 methodLen.
const frameHdrLen = 4 + 1 + 8 + 2

// readBufSize sizes the per-connection bufio.Reader: one kernel read
// pulls many small frames out of the socket at once.
const readBufSize = 64 << 10

// maxPooledBuf caps the capacity of buffers returned to the frame
// pool; anything larger (bulk sensor batches) is left to the GC so a
// burst of 64 MiB frames cannot pin memory forever.
const maxPooledBuf = (1 << 20) + frameHdrLen

// coalesceLimit caps how many bytes a batch write accumulates before
// issuing the syscall; frames larger than this are written directly
// instead of being memcpy'd into the batch buffer.
const coalesceLimit = 64 << 10

// lendMin is the payload size above which encode paths stop copying
// the payload into the pooled frame buffer and instead lend the
// caller's slice to the writer: the header travels in a small pooled
// buffer and the payload rides as its own gather vector straight into
// the socket. Below it, one memcpy into the header buffer is cheaper
// than an extra iovec.
const lendMin = 4 << 10

// bufClasses are the frame-pool size classes. putBuf files a buffer
// under the largest class bound <= its capacity, and getBufFor draws
// from the smallest class that fits the request, so a burst of
// megabyte frames can no longer pin megabyte buffers under the
// small-frame hot path (the pre-size-class pool kept any buffer up to
// maxPooledBuf in one bucket, so every pooled entry could grow to
// 1 MiB and stay there).
var bufClasses = [...]int{1 << 10, 16 << 10, 128 << 10, maxPooledBuf}

// bufPools recycles frame encode buffers and batch buffers, one pool
// per size class. Stored as *[]byte so Put does not allocate a fresh
// interface box per call.
var bufPools [len(bufClasses)]sync.Pool

// classFor returns the index of the smallest class bound >= n, or -1
// when n exceeds every class (unpooled).
func classFor(n int) int {
	for i, bound := range bufClasses {
		if n <= bound {
			return i
		}
	}
	return -1
}

// getBufFor returns a pooled buffer sized for an n-byte frame (len 0).
func getBufFor(n int) *[]byte {
	ci := classFor(n)
	if ci < 0 {
		b := make([]byte, 0, n)
		return &b
	}
	if v := bufPools[ci].Get(); v != nil {
		return v.(*[]byte)
	}
	b := make([]byte, 0, bufClasses[ci])
	return &b
}

// putBuf files a buffer back under its size class. Buffers above
// maxPooledBuf are left to the GC. Lent payload slices are caller
// owned and must never be passed here — only buffers that came from
// getBuf/getBufFor.
func putBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	// File under the largest class bound <= cap, so a get from class i
	// always yields at least bufClasses[i-1] < cap <= bufClasses[i]...
	// in practice pool entries are exactly class-sized (allocated by
	// getBufFor), and odd sizes from tests land one class down.
	ci := 0
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if cap(*b) >= bufClasses[i] {
			ci = i
			break
		}
	}
	*b = (*b)[:0]
	bufPools[ci].Put(b)
}

// appendHdr appends everything of a frame but its payload: the fixed
// prefix (whose length field counts a payloadLen-byte payload), the
// method name and the body prefix.
func appendHdr(dst []byte, kind byte, callID uint64, method string, prefix []byte, payloadLen int) ([]byte, error) {
	if len(method) > 0xFFFF {
		return dst, errors.New("rpc: method name too long")
	}
	n := 1 + 8 + 2 + len(method) + len(prefix) + payloadLen
	if n > maxFrame {
		return dst, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	var hdr [frameHdrLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = kind
	binary.BigEndian.PutUint64(hdr[5:13], callID)
	binary.BigEndian.PutUint16(hdr[13:15], uint16(len(method)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, method...)
	dst = append(dst, prefix...)
	return dst, nil
}

// encode renders one frame into a pooled buffer: header, method, body
// prefix and payload. With lend set the payload is left out — only
// counted in the frame length — because it rides to the socket as its
// own gather vector (see wframe).
func encode(kind byte, callID uint64, method string, prefix, payload []byte, lend bool) (*[]byte, error) {
	n := frameHdrLen + len(method) + len(prefix)
	if !lend {
		n += len(payload)
	}
	buf := getBufFor(n)
	b, err := appendHdr((*buf)[:0], kind, callID, method, prefix, len(payload))
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	if !lend {
		b = append(b, payload...)
	}
	*buf = b
	return buf, nil
}

// encodeFrame encodes one whole response, error or cancel frame into a
// pooled buffer.
func encodeFrame(kind byte, callID uint64, method string, payload []byte) (*[]byte, error) {
	return encode(kind, callID, method, nil, payload, false)
}

// encodeRequest encodes a request frame, whose body starts with the
// caller's absolute deadline (UnixNano, 0: none) as 8 bytes ahead of
// the payload; with lend set the payload is left to the writer's
// gather path.
func encodeRequest(callID uint64, method string, deadlineNS int64, payload []byte, lend bool) (*[]byte, error) {
	var dl [8]byte
	binary.BigEndian.PutUint64(dl[:], uint64(deadlineNS))
	return encode(kindRequest, callID, method, dl[:], payload, lend)
}

// wframe is one queued outgoing frame: a pooled buffer holding the
// encoded header (and, for small frames, the whole frame), plus an
// optional lent payload slice that is still owned by the caller. Lent
// slices are never returned to the frame pool — the writer only reads
// them, and drops its reference the moment the gather write returns.
type wframe struct {
	buf  *[]byte
	lent []byte
}

// connWriter is the per-connection buffered, coalescing write half of
// the data plane. Complete encoded frames are queued under a mutex and
// written by one dedicated flusher goroutine, which gathers everything
// queued into one scatter-gather syscall per round: concurrent
// callers' requests and concurrent workers' responses share a writev
// instead of paying a syscall each. Frames are only ever written whole
// and in enqueue order, so a batch can never interleave partial frames
// or reorder a response after a teardown. A write error tears the
// connection down and surfaces through onErr.
type connWriter struct {
	conn net.Conn

	// onErr, when non-nil, fires once with the root-cause write error
	// after a batch write fails and the connection has been torn down,
	// so the owning client can fail its pending calls with the real
	// reason instead of stranding them until a read-side timeout.
	onErr func(error)

	mu     sync.Mutex
	cond   *sync.Cond // wakes the flusher on work or close
	queue  []wframe   // complete encoded frames, FIFO
	free   []wframe   // recycled queue backing array (len 0)
	active bool       // the flusher is draining the queue
	err    error      // sticky first write error
	closed bool
}

func newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{conn: conn}
	w.cond = sync.NewCond(&w.mu)
	go w.flusher()
	return w
}

// enqueue queues one pooled encoded frame for writing and takes
// ownership of buf.
func (w *connWriter) enqueue(buf *[]byte) error {
	return w.enqueueVec(buf, nil)
}

// enqueueVec queues a frame whose header lives in the pooled buf and
// whose payload (may be nil) is lent by the caller: the two are
// gathered by the write path without copying the payload. It never
// blocks on the socket; it fails only once the writer is closed or a
// write has failed.
func (w *connWriter) enqueueVec(buf *[]byte, lent []byte) error {
	w.mu.Lock()
	if w.closed || w.err != nil {
		err := w.err
		w.mu.Unlock()
		putBuf(buf)
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	w.queue = append(w.queue, wframe{buf: buf, lent: lent})
	if !w.active {
		// The flusher is parked; an active one picks the frame up.
		w.active = true
		w.cond.Signal()
	}
	w.mu.Unlock()
	return nil
}

// flusher is the dedicated writer goroutine: it sleeps until a frame
// is queued and then batches the whole queue into as few syscalls as
// possible. It exits on close.
func (w *connWriter) flusher() {
	w.mu.Lock()
	for {
		for !w.active && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			for _, f := range w.queue {
				putBuf(f.buf)
			}
			w.queue = nil
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		// One scheduler yield before draining: every runnable producer
		// (callers about to park, workers finishing responses) gets to
		// enqueue its frame first, so the drain below gathers a whole
		// scheduling round into one writev instead of issuing a syscall
		// per frame. Costs one yield per batch, saves N-1 syscalls.
		runtime.Gosched()
		w.drain()
		w.mu.Lock()
	}
}

// drain writes queued batches until the queue empties, then clears
// w.active.
func (w *connWriter) drain() {
	var spent []wframe // batch array to recycle into w.free
	for {
		w.mu.Lock()
		if spent != nil && w.free == nil && cap(spent) <= 1024 {
			w.free = spent[:0]
		}
		if w.err != nil || w.closed || len(w.queue) == 0 {
			w.active = false
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = w.free
		w.free = nil
		w.mu.Unlock()
		err := w.writeBatch(batch)
		for i := range batch {
			batch[i] = wframe{}
		}
		spent = batch
		if err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.active = false
			onErr := w.onErr
			w.onErr = nil // fire once
			w.mu.Unlock()
			// Hand the root cause to the owner first, so queued-but-
			// unflushed frames fail their pending calls with the real
			// write error, then tear the connection down so both read
			// loops observe the failure instead of waiting on a half-dead
			// peer. Closing first lets the read loop's EOF win the race
			// to record why the connection died.
			if onErr != nil {
				onErr(err)
			}
			w.conn.Close()
			return
		}
	}
}

// vecsLimit caps the gather vectors accumulated per WriteTo round;
// Linux writev consumes at most 1024 iovecs per syscall.
const vecsLimit = 1024

// writeBatch gathers the batch into as few syscalls as possible:
// small frames are memcpy'd into one pooled buffer, lent payloads and
// oversized frames ride as their own gather vectors, and the whole
// round goes out through net.Buffers (writev on TCP — one syscall for
// many frames without copying the large payloads). All pooled frame
// buffers are returned to the pool; lent slices are only read, never
// pooled, and the writer's reference to them dies with the batch.
func (w *connWriter) writeBatch(batch []wframe) error {
	defer func() {
		for _, f := range batch {
			putBuf(f.buf)
		}
	}()
	if len(batch) == 1 && batch[0].lent == nil {
		_, err := w.conn.Write(*batch[0].buf)
		return err
	}
	acc := getBufFor(coalesceLimit)
	defer putBuf(acc)
	var vecs net.Buffers
	accStart := 0 // start offset of the open tail vector inside acc
	flushAcc := func() {
		if len(*acc) > accStart {
			vecs = append(vecs, (*acc)[accStart:len(*acc):len(*acc)])
			accStart = len(*acc)
		}
	}
	writeVecs := func() error {
		flushAcc()
		if len(vecs) == 0 {
			return nil
		}
		if len(vecs) == 1 {
			_, err := w.conn.Write(vecs[0])
			vecs = vecs[:0]
			return err
		}
		_, err := vecs.WriteTo(w.conn)
		vecs = vecs[:0]
		return err
	}
	for _, f := range batch {
		if len(vecs) >= vecsLimit-2 {
			if err := writeVecs(); err != nil {
				return err
			}
			*acc = (*acc)[:0]
			accStart = 0
		}
		if f.lent != nil {
			// Header coalesces with the preceding small frames; the lent
			// payload becomes its own vector — zero copies between the
			// caller's buffer and the socket.
			*acc = append(*acc, *f.buf...)
			flushAcc()
			vecs = append(vecs, f.lent)
			continue
		}
		if len(*f.buf) > coalesceLimit {
			// Oversized contiguous frame: its own vector, no memcpy.
			flushAcc()
			vecs = append(vecs, *f.buf)
			continue
		}
		if len(*acc)+len(*f.buf) > cap(*acc) && len(*acc) > accStart {
			// The open accumulator vector is full; seal it and keep
			// appending into a fresh region after flushing this round.
			if err := writeVecs(); err != nil {
				return err
			}
			*acc = (*acc)[:0]
			accStart = 0
		}
		*acc = append(*acc, *f.buf...)
	}
	return writeVecs()
}

// close marks the writer closed and releases the flusher. Queued but
// unwritten frames are dropped (the connection is going away).
// Idempotent.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}
