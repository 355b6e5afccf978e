package probe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"spasm/internal/sim"
	"spasm/internal/stats"
)

// The compact binary profile format: a magic/version header, the
// identifying strings, the geometry, then per epoch the per-processor
// deltas, the delay histogram, and the active-link samples, all as
// unsigned varints.  Every field is a deterministic function of the
// profiled spec, and maps are flattened in sorted order, so encoding the
// same profile always yields identical bytes — the property the spasmd
// result cache and the golden tests rely on.

// profileMagic opens every encoded profile.
var profileMagic = [4]byte{'S', 'P', 'R', 'F'}

// profileVersion is bumped on any change to the wire layout.
const profileVersion = 1

// sanity bounds for Decode: reject absurd geometries before allocating.
const (
	maxDecodeEpochs = 1 << 20
	maxDecodeProcs  = 1 << 16
	maxDecodeString = 1 << 10
)

// encoder writes the wire layout's varints and counts the bytes; with
// no writer it only counts, which is how EncodedLen sizes a buffer.
// Varints go out a byte at a time, so no scratch escapes to the heap.
type encoder struct {
	w *bufio.Writer
	n int
}

func (e *encoder) uvarint(v uint64) {
	if e.w == nil {
		e.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	for ; v >= 0x80; v >>= 7 {
		e.w.WriteByte(byte(v) | 0x80)
		e.n++
	}
	e.w.WriteByte(byte(v))
	e.n++
}

func (e *encoder) time(t sim.Time) { e.uvarint(uint64(t)) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.w != nil {
		e.w.WriteString(s)
	}
	e.n += len(s)
}

// Encode writes the profile in its compact binary form and returns the
// number of bytes written.
func (p *Profile) Encode(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(profileMagic[:]); err != nil {
		return 0, err
	}
	e := encoder{w: bw, n: len(profileMagic)}
	p.encode(&e)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return e.n, nil
}

// EncodedLen returns the number of bytes Encode writes for p, so a
// caller can size its buffer once.
func (p *Profile) EncodedLen() int {
	e := encoder{n: len(profileMagic)}
	p.encode(&e)
	return e.n
}

// encode walks the wire layout after the magic.
func (p *Profile) encode(e *encoder) {
	e.uvarint(profileVersion)
	e.str(p.App)
	e.str(p.Machine)
	e.str(p.Topology)
	e.uvarint(uint64(p.P))
	e.uvarint(uint64(p.NumLinks))
	e.time(p.EpochLen)
	e.time(p.Total)
	e.uvarint(uint64(stats.NumBuckets))
	e.uvarint(uint64(HistBuckets))
	e.uvarint(uint64(len(p.Epochs)))
	for i := range p.Epochs {
		ep := &p.Epochs[i]
		for j := range ep.Procs {
			ps := &ep.Procs[j]
			for b := range ps.Buckets {
				e.time(ps.Buckets[b])
			}
			e.uvarint(ps.Reads)
			e.uvarint(ps.Writes)
			e.uvarint(ps.Hits)
			e.uvarint(ps.Misses)
			e.uvarint(ps.Messages)
			e.uvarint(ps.Invals)
			e.uvarint(ps.Writebacks)
		}
		for _, c := range ep.Hist {
			e.uvarint(c)
		}
		e.uvarint(uint64(len(ep.Links)))
		for _, l := range ep.Links {
			e.uvarint(uint64(l.Link))
			e.time(l.Busy)
			e.time(l.Wait)
			e.uvarint(l.Messages)
			e.uvarint(l.Bytes)
		}
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (rd *reader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(rd.r)
	if err != nil {
		rd.err = fmt.Errorf("probe: truncated profile: %w", err)
	}
	return v
}

func (rd *reader) time() sim.Time { return sim.Time(rd.uvarint()) }

func (rd *reader) count(what string, max uint64) int {
	v := rd.uvarint()
	if rd.err == nil && v > max {
		rd.err = fmt.Errorf("probe: implausible %s count %d", what, v)
	}
	return int(v)
}

func (rd *reader) str() string {
	n := rd.count("string", maxDecodeString)
	if rd.err != nil {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd.r, b); err != nil {
		rd.err = fmt.Errorf("probe: truncated profile: %w", err)
		return ""
	}
	return string(b)
}

// Decode reads a profile serialized with Encode.
func Decode(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("probe: truncated profile: %w", err)
	}
	if magic != profileMagic {
		return nil, fmt.Errorf("probe: bad magic %q", magic[:])
	}
	rd := &reader{r: br}
	if v := rd.uvarint(); rd.err == nil && v != profileVersion {
		return nil, fmt.Errorf("probe: unsupported profile version %d", v)
	}
	p := &Profile{
		App:      rd.str(),
		Machine:  rd.str(),
		Topology: rd.str(),
		P:        rd.count("processor", maxDecodeProcs),
		NumLinks: rd.count("link-space", 1<<30),
		EpochLen: rd.time(),
		Total:    rd.time(),
	}
	nb := rd.count("bucket", 64)
	nh := rd.count("hist-bucket", 64)
	if rd.err == nil && (nb != int(stats.NumBuckets) || nh != HistBuckets) {
		return nil, fmt.Errorf("probe: profile has %d buckets / %d hist buckets, want %d / %d",
			nb, nh, stats.NumBuckets, HistBuckets)
	}
	nEpochs := rd.count("epoch", maxDecodeEpochs)
	if rd.err == nil && nEpochs > 0 && p.EpochLen == 0 {
		return nil, fmt.Errorf("probe: profile has %d epochs of zero length", nEpochs)
	}
	for i := 0; i < nEpochs && rd.err == nil; i++ {
		e := Epoch{Procs: make([]ProcSample, p.P)}
		for j := range e.Procs {
			ps := &e.Procs[j]
			for b := range ps.Buckets {
				ps.Buckets[b] = rd.time()
			}
			ps.Reads = rd.uvarint()
			ps.Writes = rd.uvarint()
			ps.Hits = rd.uvarint()
			ps.Misses = rd.uvarint()
			ps.Messages = rd.uvarint()
			ps.Invals = rd.uvarint()
			ps.Writebacks = rd.uvarint()
		}
		for b := range e.Hist {
			e.Hist[b] = rd.uvarint()
		}
		nLinks := rd.count("link", 1<<30)
		for k := 0; k < nLinks && rd.err == nil; k++ {
			e.Links = append(e.Links, LinkSample{
				Link:     int(rd.uvarint()),
				Busy:     rd.time(),
				Wait:     rd.time(),
				Messages: rd.uvarint(),
				Bytes:    rd.uvarint(),
			})
		}
		p.Epochs = append(p.Epochs, e)
	}
	if rd.err != nil {
		return nil, rd.err
	}
	return p, nil
}
