package page

import (
	"encoding/binary"
	"fmt"
)

// Record payload formats shared by the B+ tree, the storage engine, and
// the Page Store NDP plugin.
//
// Leaf records:   [uvarint keyLen][key bytes][row bytes]
//
// The key prefix is the memcmp-comparable encoding of the index key. It
// plays the role InnoDB's always-included primary key columns play in the
// paper (§V-A): even after NDP column projection, the key survives so the
// persistent cursor can re-position and ordering checks remain possible.
// The row bytes are the types row codec encoding of the index schema (for
// NDP-projected records, of the projected schema), possibly followed by
// an aggregate-state blob for RecNDPAggregate records.
//
// Node-pointer records: [uvarint keyLen][key bytes][8-byte child page ID]

// EncodeLeafPayload builds a leaf record payload.
func EncodeLeafPayload(dst, key, row []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, row...)
}

// SplitLeafPayload splits a leaf payload into its key and row parts.
func SplitLeafPayload(payload []byte) (key, row []byte, err error) {
	l, n := binary.Uvarint(payload)
	if n <= 0 || l > uint64(len(payload)-n) {
		return nil, nil, fmt.Errorf("page: corrupt leaf payload")
	}
	return payload[n : n+int(l)], payload[n+int(l):], nil
}

// EncodeNodePtr builds a node-pointer record payload.
func EncodeNodePtr(dst, key []byte, child uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.LittleEndian.AppendUint64(dst, child)
}

// SplitNodePtr splits a node-pointer payload into key and child page ID.
func SplitNodePtr(payload []byte) (key []byte, child uint64, err error) {
	l, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) < n+8 || l > uint64(len(payload)-n-8) {
		return nil, 0, fmt.Errorf("page: corrupt node pointer payload")
	}
	key = payload[n : n+int(l)]
	child = binary.LittleEndian.Uint64(payload[n+int(l):])
	return key, child, nil
}
