package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"net/http"
)

// Upload decoding. A /v1/predict body is a small JSON envelope around one
// large string, binary_b64, which can run to megabytes. Through
// encoding/json alone that string is validated, unquoted and copied
// before base64 even sees it. The fast path instead finds the value with a
// short scan of the top-level object, hands encoding/json the envelope
// with the value's bytes cut out, and then base64-decodes the value in
// place, over its own text in the body buffer. It applies only where that
// cut cannot change what encoding/json would decode; every other body
// takes the plain path, so answers and error messages are the same either
// way.

// binaryKey is the top-level member the fast path extracts.
const binaryKey = "binary_b64"

// readBody reads the whole request body into one buffer, which grows only
// as bytes arrive. A body over limit bytes fails with *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodePredictBody decodes a /v1/predict body. When the fast path takes
// the body, bin is the decoded top-level binary_b64, pb.BinaryB64 is
// empty, and body has been written over: bin aliases it. Otherwise bin is
// nil, body is as it was, and pb and err are exactly what json.Unmarshal
// makes of body.
func decodePredictBody(body []byte) (pb predictBody, bin []byte, err error) {
	if start, end, ok := findBinary(body); ok {
		// The envelope first: a type error there leaves nothing to undo.
		rest := make([]byte, 0, len(body)-(end-start))
		rest = append(append(rest, body[:start]...), body[end:]...)
		if json.Unmarshal(rest, &pb) == nil {
			if n, ok := decodeInPlace(body[start:end]); ok {
				// A full slice expression, so no append can reach the
				// envelope behind the image.
				return pb, body[start : start+n : start+n], nil
			}
		}
		// The envelope may have left pb partly filled.
		pb = predictBody{}
	}
	err = json.Unmarshal(body, &pb)
	return pb, nil, err
}

// b64Bad marks, in b64Dec, a byte outside the base64 alphabet. It lies
// above the 24 value bits of a quad, so it survives the OR of a quad's
// four lookups.
const b64Bad = 1 << 24

// b64Dec holds the decode kernel's tables: b64Dec[i][c] is the 6-bit
// value of the StdEncoding character c shifted into place for position i
// of its quad (18, 12, 6 and 0 bits up), or b64Bad for any byte outside
// the alphabet, padding, CR, LF and backslash included.
var b64Dec = func() (t [4][256]uint32) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := range t {
		for c := range t[i] {
			t[i][c] = b64Bad
		}
		for v := 0; v < len(alphabet); v++ {
			t[i][alphabet[v]] = uint32(v) << (18 - 6*i)
		}
	}
	return t
}()

// decodeInPlace decodes the padded StdEncoding text b over itself and
// returns the length n of the image, which is then b[:n]. It returns
// false, with b byte-identical to what it was, when it does not take the
// text: a length that is not a whole number of quads, any byte outside
// the alphabet before the tail, or a tail that encoding/base64 rejects or
// that holds CR or LF (which encoding/base64 would skip).
//
// The bulk decodes eight characters to six bytes a step and writes behind
// its reader: step k reads b[8k:8k+8] before it writes b[6k:6k+8], six
// bytes of image and two that the next step overwrites, and since
// 6k+8 <= 8k+8 no unread character is overwritten. It stops before the
// last quad, which may hold padding and the non-zero trailing bits
// StdEncoding accepts, so the tail of one or two quads goes through
// encoding/base64 from a copy. A bad byte stops the bulk before that
// step writes, and undoBulk puts back the text it overwrote.
func decodeInPlace(b []byte) (n int, ok bool) {
	if len(b) == 0 || len(b)%4 != 0 {
		return 0, false
	}
	bulk := (len(b) - 4) / 8 * 8
	r, w := 0, 0 // step k reads at r = 8k and writes at w = 6k
	for ; r < bulk; r, w = r+8, w+6 {
		s := b[r : r+8 : r+8]
		hi := b64Dec[0][s[0]] | b64Dec[1][s[1]] | b64Dec[2][s[2]] | b64Dec[3][s[3]]
		lo := b64Dec[0][s[4]] | b64Dec[1][s[5]] | b64Dec[2][s[6]] | b64Dec[3][s[7]]
		if (hi|lo)&b64Bad != 0 {
			break
		}
		binary.BigEndian.PutUint64(b[w:w+8], uint64(hi)<<40|uint64(lo)<<16)
	}
	if r == bulk {
		var text [8]byte
		var img [6]byte
		tail := text[:copy(text[:], b[r:])]
		if !bytes.ContainsAny(tail, "\r\n") {
			if m, err := base64.StdEncoding.Decode(img[:], tail); err == nil {
				return w + copy(b[w:], img[:m]), true
			}
		}
	}
	undoBulk(b, w/6)
	return 0, false
}

// undoBulk re-encodes the first k bulk steps of decodeInPlace over the
// image they wrote, last step first. Step j's image b[6j:6j+6] is read
// before its text b[8j:8j+8] is written; later steps' writes begin at
// 6j+6 or after, and earlier steps' images end at 6j, so each image is
// intact when its turn comes. Eight alphabet characters are the only
// encoding of their six bytes, so the text comes back exactly.
func undoBulk(b []byte, k int) {
	for j := k - 1; j >= 0; j-- {
		var img [6]byte
		copy(img[:], b[6*j:6*j+6])
		base64.StdEncoding.Encode(b[8*j:8*j+8], img[:])
	}
}

// findBinary locates the content of the top-level binary_b64 string,
// body[start:end], walking the object's members without validating them:
// encoding/json validates the envelope once the value is cut out, and
// rejects anything this scan misread. ok is false unless
//   - body is a JSON object whose keys contain no backslash, since an
//     escape could spell any key;
//   - exactly one key case-folds to binary_b64, spelled exactly so:
//     encoding/json matches keys case-insensitively and keeps the last of
//     duplicates;
//   - its value is a non-empty string. The scan takes the first quote
//     after the opening one as the closing one; decodeInPlace refuses
//     any value holding a backslash, so an escaped quote never ends a
//     value the fast path takes. It refuses CR and LF too, which JSON
//     does not allow raw in a string and which encoding/base64 skips.
func findBinary(body []byte) (start, end int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	for i = skipSpace(body, i+1); ; i = skipSpace(body, i+1) {
		if i == len(body) || body[i] != '"' {
			return 0, 0, false
		}
		k := bytes.IndexByte(body[i+1:], '"')
		if k < 0 {
			return 0, 0, false
		}
		key := body[i+1 : i+1+k]
		if bytes.IndexByte(key, '\\') >= 0 {
			return 0, 0, false
		}
		i = skipSpace(body, i+2+k)
		if i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
		if bytes.EqualFold(key, []byte(binaryKey)) {
			if ok || string(key) != binaryKey || i == len(body) || body[i] != '"' {
				return 0, 0, false
			}
			n := bytes.IndexByte(body[i+1:], '"')
			if n <= 0 {
				return 0, 0, false
			}
			start, end, ok = i+1, i+1+n, true
			i = skipSpace(body, end+1)
		} else if i = memberEnd(body, i); i < 0 {
			return 0, 0, false
		}
		if i == len(body) || body[i] != ',' {
			break
		}
	}
	if i == len(body) || body[i] != '}' {
		return 0, 0, false
	}
	return start, end, ok
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// memberEnd returns the index of the ',' or '}' that ends the object
// member whose value starts at b[i], or -1 if the body ends first. It
// tracks only strings and nesting, which is enough to find the end of any
// valid value.
func memberEnd(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i = stringEnd(b, i); i < 0 {
				return -1
			}
		case '{', '[':
			depth++
		case ']':
			depth--
		case '}':
			if depth == 0 {
				return i
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// stringEnd returns the index of the unescaped quote closing the string
// that opens at b[i], or -1.
func stringEnd(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i+1:], '"')
		if j < 0 {
			return -1
		}
		i += 1 + j
		escaped := false
		for k := i - 1; b[k] == '\\'; k-- {
			escaped = !escaped
		}
		if !escaped {
			return i
		}
	}
}
