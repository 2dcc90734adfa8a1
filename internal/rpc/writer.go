package rpc

import (
	"errors"
	"fmt"
	"io"
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

// getBuf returns a small pooled buffer (the common frame case).
func getBuf() *[]byte { return getBufFor(0) }

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

// appendFrame appends one encoded frame to dst and returns the
// extended slice. The caller owns dst; nothing is retained.
func appendFrame(dst []byte, kind byte, callID uint64, method string, payload []byte) ([]byte, error) {
	return appendFrame2(dst, kind, callID, method, nil, payload)
}

// appendHdr appends the fixed frame prefix for a body of bodyLen
// bytes (kind+callID+methodLen+method+prefix+payload) plus the method
// name and optional prefix — everything except the payload itself.
func appendHdr(dst []byte, kind byte, callID uint64, method string, prefix []byte, payloadLen int) ([]byte, error) {
	if len(method) > 0xFFFF {
		return dst, errors.New("rpc: method name too long")
	}
	n := 1 + 8 + 2 + len(method) + len(prefix) + payloadLen
	if n > maxFrame {
		return dst, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	var hdr [frameHdrLen]byte
	hdr[0] = byte(n >> 24)
	hdr[1] = byte(n >> 16)
	hdr[2] = byte(n >> 8)
	hdr[3] = byte(n)
	hdr[4] = kind
	hdr[5] = byte(callID >> 56)
	hdr[6] = byte(callID >> 48)
	hdr[7] = byte(callID >> 40)
	hdr[8] = byte(callID >> 32)
	hdr[9] = byte(callID >> 24)
	hdr[10] = byte(callID >> 16)
	hdr[11] = byte(callID >> 8)
	hdr[12] = byte(callID)
	hdr[13] = byte(len(method) >> 8)
	hdr[14] = byte(len(method))
	dst = append(dst, hdr[:]...)
	dst = append(dst, method...)
	dst = append(dst, prefix...)
	return dst, nil
}

// appendFrame2 is appendFrame with the body split in two parts (prefix
// then payload), gathered into one contiguous frame without an
// intermediate concatenation.
func appendFrame2(dst []byte, kind byte, callID uint64, method string, prefix, payload []byte) ([]byte, error) {
	dst, err := appendHdr(dst, kind, callID, method, prefix, len(payload))
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

// encodeFrame encodes one frame into a pooled buffer.
func encodeFrame(kind byte, callID uint64, method string, payload []byte) (*[]byte, error) {
	buf := getBufFor(frameHdrLen + len(method) + len(payload))
	b, err := appendFrame((*buf)[:0], kind, callID, method, payload)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	*buf = b
	return buf, nil
}

// encodeDL renders the 8-byte absolute-deadline body prefix of a
// kindRequestDL frame.
func encodeDL(deadlineNS int64) [8]byte {
	var dl [8]byte
	dl[0] = byte(deadlineNS >> 56)
	dl[1] = byte(deadlineNS >> 48)
	dl[2] = byte(deadlineNS >> 40)
	dl[3] = byte(deadlineNS >> 32)
	dl[4] = byte(deadlineNS >> 24)
	dl[5] = byte(deadlineNS >> 16)
	dl[6] = byte(deadlineNS >> 8)
	dl[7] = byte(deadlineNS)
	return dl
}

// encodeFrameDL encodes a kindRequestDL frame: the absolute deadline
// (UnixNano) rides as an 8-byte prefix of the frame body, ahead of the
// payload, so deadline propagation costs no extra copy of the payload.
func encodeFrameDL(callID uint64, method string, deadlineNS int64, payload []byte) (*[]byte, error) {
	dl := encodeDL(deadlineNS)
	buf := getBufFor(frameHdrLen + len(method) + 8 + len(payload))
	b, err := appendFrame2((*buf)[:0], kindRequestDL, callID, method, dl[:], payload)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	*buf = b
	return buf, nil
}

// encodeLent encodes the pooled header part of a frame whose payload
// is lent: the returned buffer carries length prefix, kind, call id,
// method and the optional deadline prefix, with the frame length
// accounting for the payload that will ride as its own gather vector.
func encodeLent(kind byte, callID uint64, method string, deadlineNS int64, payload []byte) (*[]byte, error) {
	var prefix []byte
	var dl [8]byte
	if kind == kindRequestDL {
		dl = encodeDL(deadlineNS)
		prefix = dl[:]
	}
	buf := getBuf()
	b, err := appendHdr((*buf)[:0], kind, callID, method, prefix, len(payload))
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	*buf = b
	return buf, nil
}

// writeFrame encodes and writes one frame as a single Write. It is the
// unbatched slow path, kept for tests and one-shot writers.
func writeFrame(w io.Writer, f frame) error {
	buf, err := encodeFrame(f.kind, f.callID, f.method, f.payload)
	if err != nil {
		return err
	}
	_, err = w.Write(*buf)
	putBuf(buf)
	return err
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
// the data plane. Complete encoded frames are queued under a mutex;
// whoever finds the writer idle flushes the first batch inline (an
// idle enqueue hits the wire with no handoff latency), and frames that
// arrive while a write syscall is in flight are handed to the
// dedicated flusher goroutine, which gathers everything queued into
// one scatter-gather syscall per round. Frames are only ever written
// whole and in enqueue order, so a batch can never interleave partial
// frames or reorder a response after a teardown.
type connWriter struct {
	conn net.Conn

	// onErr, when non-nil, fires once with the root-cause write error
	// after a batch write fails and the connection has been torn down,
	// so the owning client can fail its pending calls with the real
	// reason instead of stranding them until a read-side timeout.
	onErr func(error)

	mu      sync.Mutex
	cond    *sync.Cond // signals the flusher on handoff or close
	queue   []wframe   // complete encoded frames, FIFO
	free    []wframe   // recycled queue backing array (len 0)
	active  bool       // some goroutine is draining the queue
	handoff bool       // the flusher owns the next drain
	err     error      // sticky first write error
	closed  bool
}

func newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{conn: conn}
	w.cond = sync.NewCond(&w.mu)
	go w.flusher()
	return w
}

// enqueue queues one pooled encoded frame for writing and takes
// ownership of buf.
func (w *connWriter) enqueue(buf *[]byte, inline bool) error {
	return w.enqueueVec(buf, nil, inline)
}

// enqueueVec queues a frame whose header lives in the pooled buf and
// whose payload (may be nil) is lent by the caller: the two are
// gathered by the write path without copying the payload. If inline
// is true and the writer is idle, the calling goroutine performs the
// first flush itself and the returned error reflects the write;
// otherwise errors surface asynchronously through connection teardown.
// Callers whose goroutine must never block on a syscall (the server
// read loop answering pings) pass inline=false.
func (w *connWriter) enqueueVec(buf *[]byte, lent []byte, inline bool) error {
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
	if w.active {
		// A drain is in flight; it will pick this frame up.
		w.mu.Unlock()
		return nil
	}
	w.active = true
	if !inline {
		w.handoff = true
		w.cond.Signal()
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	w.drain(1)
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	return err
}

// flusher is the dedicated writer goroutine: it sleeps until a drain
// is handed off (frames queued up behind an inline write, or an async
// enqueue) and then batches the whole queue into as few syscalls as
// possible. It exits on close.
func (w *connWriter) flusher() {
	w.mu.Lock()
	for {
		for !w.handoff && !w.closed {
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
		w.handoff = false
		w.mu.Unlock()
		// One scheduler yield before draining: every runnable producer
		// (mux callers about to park, workers finishing responses) gets
		// to enqueue its frame first, so the drain below gathers a whole
		// scheduling round into one writev instead of issuing a syscall
		// per frame. Costs one yield per batch, saves N-1 syscalls.
		runtime.Gosched()
		w.drain(0)
		w.mu.Lock()
	}
}

// drain writes queued batches until the queue empties or, when
// rounds > 0, that many batches were written — the remainder is then
// handed to the flusher so the inline caller returns after one
// syscall. The caller must have claimed w.active.
func (w *connWriter) drain(rounds int) {
	var spent []wframe // batch array to recycle into w.free
	for n := 0; ; n++ {
		w.mu.Lock()
		if spent != nil && w.free == nil && cap(spent) <= 1024 {
			w.free = spent[:0]
		}
		if w.err != nil || w.closed || len(w.queue) == 0 {
			w.active = false
			w.mu.Unlock()
			return
		}
		if rounds > 0 && n >= rounds {
			w.handoff = true
			w.cond.Signal()
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
