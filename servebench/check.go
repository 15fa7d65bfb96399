package main

import (
	"fmt"
	"sync"

	"nvmcache/internal/kv"
	"nvmcache/internal/loadgen"
	"nvmcache/internal/proto"
)

// writeRec is one PUT the driver sent.
type writeRec struct {
	key   uint64
	sent  int64
	acked int64 // reply time of its OK; 0 if never acked
}

// writeLog records every PUT by write sequence, so any connection's reader
// can tell whether a value it reads was ever written to that key. Sequence
// s>0 is connection (s-1)%n's ((s-1)/n)-th PUT; sequence 0 is the preload,
// acked at preloaded.
type writeLog struct {
	mu        sync.RWMutex
	recs      [][]writeRec
	preloaded int64
}

func newWriteLog(conns int) *writeLog { return &writeLog{recs: make([][]writeRec, conns)} }

// add files connection c's next PUT and returns its sequence.
func (w *writeLog) add(c int, key uint64, sent int64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recs[c] = append(w.recs[c], writeRec{key: key, sent: sent})
	return uint64(len(w.recs[c])-1)*uint64(len(w.recs)) + uint64(c) + 1
}

func (w *writeLog) ack(seq uint64, at int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := uint64(len(w.recs))
	w.recs[(seq-1)%n][(seq-1)/n].acked = at
}

// lookup finds the write a value came from, if the driver ever sent that
// value to key.
func (w *writeLog) lookup(key, val uint64) (writeRec, bool) {
	if val&keyMask != key {
		return writeRec{}, false
	}
	seq := val >> keyBits
	if seq == 0 {
		return writeRec{key: key, acked: w.preloaded}, true
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := uint64(len(w.recs))
	c, i := (seq-1)%n, (seq-1)/n
	if i >= uint64(len(w.recs[c])) || w.recs[c][i].key != key {
		return writeRec{}, false
	}
	return w.recs[c][i], true
}

// ledger is one connection's counter sums and correctness violations,
// owned by its reader goroutine.
type ledger struct {
	incrSent, incrAcked [counterKeys]uint64
	violations
}

// violations keeps a count and the first few messages.
type violations struct {
	n     int
	first []string
}

func (v *violations) addf(format string, args ...any) {
	v.n++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *violations) merge(o *violations) {
	for _, m := range o.first {
		if len(v.first) < 5 {
			v.first = append(v.first, m)
		}
	}
	v.n += o.n
}

// record checks one request's outcome, files it, and reports whether the
// request succeeded. An unanswered request (connection lost) or an error
// reply is a failure, not a violation.
func (d *driver) record(c *conn, p pending, answered bool, op byte, payload []byte, now int64) bool {
	if !answered || op == proto.RepErr {
		if p.kind == loadgen.OpIncr {
			c.led.incrSent[p.key-counterBase] += p.arg
		}
		return false
	}
	led := &c.led
	switch p.kind {
	case loadgen.OpPut:
		if op != proto.RepOK {
			led.addf("PUT %d: reply op %d, want OK", p.key, op)
			return false
		}
		d.wl.ack(p.arg, now)
	case loadgen.OpIncr:
		i := p.key - counterBase
		led.incrSent[i] += p.arg
		v, err := proto.DecodeVal(payload)
		if op != proto.RepVal || err != nil {
			led.addf("INCR %d: reply op %d (%v), want VAL", p.key, op, err)
			return false
		}
		if v < p.arg {
			led.addf("INCR %d by %d: post-increment value %d", p.key, p.arg, v)
		}
		led.incrAcked[i] += p.arg
	case loadgen.OpGet:
		if op != proto.RepVal {
			led.addf("GET %d: reply op %d for a preloaded key, want VAL", p.key, op)
			return false
		}
		v, err := proto.DecodeVal(payload)
		if err != nil {
			led.addf("GET %d: %v", p.key, err)
			return false
		}
		w, ok := d.wl.lookup(p.key, v)
		switch {
		case !ok:
			led.addf("GET %d: value %#x was never written to it", p.key, v)
		case w.sent > now:
			led.addf("GET %d: value %#x read before its PUT was sent", p.key, v)
		}
	}
	return true
}

// checkRecovered checks a store recovered after a crash against the
// ledger: every data key holds its last acked value or one sent later,
// every counter lies between its acked and its sent deltas, and every
// shard's tree is well formed.
func (d *driver) checkRecovered(st *kv.Store) violations {
	var bad violations
	if err := st.CheckInvariants(); err != nil {
		// A malformed tree cannot be walked safely key by key.
		bad.addf("recovered store: %v", err)
		return bad
	}
	// lastAcked[k]: the latest send time among acked PUTs to k. A
	// recovered value from an acked PUT acked before that send is lost
	// data: the later PUT was sent only after it had been acked.
	lastAcked := make([]int64, dataKeys)
	for _, recs := range d.wl.recs {
		for _, w := range recs {
			if w.acked != 0 && w.sent > lastAcked[w.key] {
				lastAcked[w.key] = w.sent
			}
		}
	}
	for k := uint64(0); k < dataKeys; k++ {
		v, found, err := st.Get(k)
		if err != nil || !found {
			bad.addf("recovered key %d: found=%v err=%v", k, found, err)
			continue
		}
		w, ok := d.wl.lookup(k, v)
		switch {
		case !ok:
			bad.addf("recovered key %d: value %#x was never written to it", k, v)
		case w.acked != 0 && lastAcked[k] > w.acked:
			bad.addf("recovered key %d: value %#x, but a PUT sent after it was acked was acked too", k, v)
		}
	}
	for i := uint64(0); i < counterKeys; i++ {
		var sent, acked uint64
		for _, c := range d.conns {
			sent += c.led.incrSent[i]
			acked += c.led.incrAcked[i]
		}
		v, _, err := st.Get(counterBase + i)
		if err != nil || v < acked || v > sent {
			bad.addf("recovered counter %d: %d (err %v), want within acked %d..sent %d", i, v, err, acked, sent)
		}
	}
	return bad
}
