package page

import (
	"encoding/binary"
	"math"
	"testing"
)

// badKeyLengths are key lengths a 3-byte key cannot satisfy; those of
// 2^63 or more wrap negative when converted to int.
var badKeyLengths = []uint64{4, 1 << 62, 1 << 63, 1<<63 + 7, math.MaxUint64}

// TestSplitLeafPayloadRejectsBadKeyLength: a key length past the payload
// is an error, not a slice-bounds panic.
func TestSplitLeafPayloadRejectsBadKeyLength(t *testing.T) {
	for _, l := range badKeyLengths {
		buf := append(binary.AppendUvarint(nil, l), "abc"...)
		if _, _, err := SplitLeafPayload(buf); err == nil {
			t.Errorf("SplitLeafPayload accepted key length %d in %d bytes", l, len(buf))
		}
	}
	key, row, err := SplitLeafPayload(EncodeLeafPayload(nil, []byte("abc"), []byte("row")))
	if err != nil || string(key) != "abc" || string(row) != "row" {
		t.Fatalf("round trip: %q %q %v", key, row, err)
	}
}

// TestSplitNodePtrRejectsBadKeyLength: a key length that leaves no room
// for the 8-byte child ID is an error, not a slice-bounds panic.
func TestSplitNodePtrRejectsBadKeyLength(t *testing.T) {
	for _, l := range badKeyLengths {
		buf := append(binary.AppendUvarint(nil, l), "abc"...)
		buf = binary.LittleEndian.AppendUint64(buf, 9)
		if _, _, err := SplitNodePtr(buf); err == nil {
			t.Errorf("SplitNodePtr accepted key length %d in %d bytes", l, len(buf))
		}
	}
	enc := EncodeNodePtr(nil, []byte("abc"), 9)
	if _, _, err := SplitNodePtr(enc[:len(enc)-1]); err == nil {
		t.Error("SplitNodePtr accepted a 7-byte child ID")
	}
	key, child, err := SplitNodePtr(enc)
	if err != nil || string(key) != "abc" || child != 9 {
		t.Fatalf("round trip: %q %d %v", key, child, err)
	}
}
