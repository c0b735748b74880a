package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMeshFrameClaimedLengthBounded feeds a reader a 12-byte frame
// header claiming a 4 GiB payload, then EOF: the connection must fail
// without allocating anywhere near the claimed size.
func TestMeshFrameClaimedLengthBounded(t *testing.T) {
	local, remote := net.Pipe()
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:], math.MaxUint32)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mc := newMeshConn(local)
	if _, err := remote.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	if _, err := mc.await(0, 5*time.Second); err == nil || !strings.Contains(err.Error(), "mesh peer lost") {
		t.Fatalf("truncated 4 GiB frame: err = %v", err)
	}
	mc.close()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("a 4 GiB length header cost %d bytes of allocation", grew)
	}
}

// TestReadPayloadGrows reads payloads on both sides of the eager-size
// boundary, byte-exact, and reports a short stream as an error.
func TestReadPayloadGrows(t *testing.T) {
	for _, n := range []int{0, 1, meshEagerBytes, meshEagerBytes + 1, 5*meshEagerBytes + 7} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got, err := readPayload(bytes.NewReader(want), n)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("n=%d: %d bytes, err %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := readPayload(bytes.NewReader(want[:n-1]), n); err == nil {
				t.Errorf("n=%d: short stream read without error", n)
			}
		}
	}
}
