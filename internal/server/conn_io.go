package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync"

	"pq/internal/wire"
)

// Connection I/O for the zero-allocation serving path.
//
// A respWriter replaces the per-connection bufio.Writer: every response
// frame is appended into one pooled buffer (wire.GetBuf), item values
// are copied in and their queue envelopes recycled at once, and a flush
// hands the whole buffer to the connection in one Write, so a depth-N
// pipeline of responses costs one syscall. The buffer never aliases
// another pooled buffer, so a flush has nothing to recycle.

// respBufSize is the writer's starting buffer, one wire pool class: a
// pipelined burst of small responses fits many times over. The buffer's
// capacity bounds the bytes held before an intermediate flush; a single
// frame larger than it swaps in a pool buffer that fits, until the flush
// that writes it.
const respBufSize = 128 << 10

// fixedPayload bounds the fixed-size response payloads (INSERT_OK,
// RETRY_AFTER, DRAINED, and WRONG_NODE apart from its owner address).
const fixedPayload = 16

type respWriter struct {
	dst  io.Writer
	buf  []byte // pooled; response frames appended in place
	met  *serverMetrics
	hint uint64 // metric stripe hint (the connection id)
	err  error  // sticky write error
}

func newRespWriter(dst io.Writer, met *serverMetrics, hint uint64) *respWriter {
	return &respWriter{dst: dst, buf: wire.GetBuf(respBufSize), met: met, hint: hint}
}

// release returns the buffer to the pool. Unflushed bytes are dropped
// (the connection is gone).
func (w *respWriter) release() { wire.PutBuf(w.buf) }

// room makes space for an n-byte frame: it flushes what is buffered
// when the frame would not fit, and swaps in a larger pool buffer when
// the frame alone exceeds the buffer, so appends never grow it.
func (w *respWriter) room(n int) {
	if len(w.buf)+n <= cap(w.buf) {
		return
	}
	w.flush()
	if n > cap(w.buf) {
		wire.PutBuf(w.buf)
		w.buf = wire.GetBuf(n)
	}
}

// beginFrame starts a response frame whose payload is at most
// payloadLen bytes and returns the append target plus the length-patch
// offset for endFrame.
func (w *respWriter) beginFrame(t wire.Type, id uint32, payloadLen int) ([]byte, int) {
	w.room(12 + payloadLen) // length prefix + header
	return wire.BeginFrame(w.buf, t, id)
}

// endFrame seals a frame begun with beginFrame. buf must be the slice
// beginFrame returned, extended only by appends. It reports the sticky
// write error of any flush the frame caused.
func (w *respWriter) endFrame(buf []byte, off int) error {
	w.buf = wire.EndFrame(buf, off)
	return w.err
}

// itemFrame writes a TItem response for one queue envelope (priority
// tag + value, see servedQueue.tagLen) and recycles the envelope.
func (w *respWriter) itemFrame(id uint32, env []byte, tagLen int) error {
	buf, off := w.beginFrame(wire.TItem, id, 8+len(env)-tagLen)
	return w.endFrame(appendItem(buf, env, tagLen), off)
}

// itemsFrame writes a TItems response from queue envelopes, recycling
// every envelope like itemFrame does.
func (w *respWriter) itemsFrame(id uint32, envs [][]byte, tagLen int) error {
	payloadLen := 4
	for _, env := range envs {
		payloadLen += 8 + len(env) - tagLen
	}
	buf, off := w.beginFrame(wire.TItems, id, payloadLen)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(envs)))
	for _, env := range envs {
		buf = appendItem(buf, env, tagLen)
	}
	return w.endFrame(buf, off)
}

// appendItem appends one wire item (priority, value length, value)
// copied from a queue envelope, and returns the envelope to the pool.
func appendItem(buf, env []byte, tagLen int) []byte {
	value := env[tagLen:]
	buf = binary.BigEndian.AppendUint32(buf, binary.BigEndian.Uint32(env))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, value...)
	wire.PutBuf(env)
	return buf
}

// flush writes everything buffered in one Write, counting the bytes
// and the flush. Errors are sticky: the connection is unusable after
// one, and later frames are dropped.
func (w *respWriter) flush() error {
	if len(w.buf) > 0 && w.err == nil {
		n, err := w.dst.Write(w.buf)
		w.met.bytesWritten.Add(w.hint, int64(n))
		w.met.flushes.Inc(w.hint)
		w.err = err
	}
	w.buf = w.buf[:0]
	if cap(w.buf) > respBufSize {
		// room swapped in a bigger buffer for one large frame; hand it
		// back, so a connection holds only respBufSize between them.
		wire.PutBuf(w.buf)
		w.buf = wire.GetBuf(respBufSize)
	}
	return w.err
}

// connReaderPool recycles the 64 KiB per-connection read buffers
// across connection churn.
var connReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

func getConnReader(src io.Reader) *bufio.Reader {
	br := connReaderPool.Get().(*bufio.Reader)
	br.Reset(src)
	return br
}

func putConnReader(br *bufio.Reader) {
	br.Reset(nil) // drop the connection reference before pooling
	connReaderPool.Put(br)
}

// envsPool recycles the envelope slices that carry DeleteMinBatch
// results from the queue to the response encoder.
var envsPool = sync.Pool{
	New: func() any { s := make([][]byte, 0, 64); return &s },
}

func getEnvs() *[][]byte { return envsPool.Get().(*[][]byte) }

func putEnvs(s *[][]byte) {
	for i := range *s {
		(*s)[i] = nil
	}
	*s = (*s)[:0]
	envsPool.Put(s)
}
