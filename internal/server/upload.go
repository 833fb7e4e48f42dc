package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
)

// Upload decoding. A /v1/predict body is a small JSON envelope around one
// large string, binary_b64, which can run to megabytes. Through
// encoding/json alone that string is validated, unquoted and copied
// before base64 even sees it. The fast path instead finds the value with a
// short scan of the top-level object, base64-decodes it straight out of
// the body into one fresh buffer, and hands encoding/json the envelope
// with the value's bytes cut out. It applies only where that cut cannot
// change what encoding/json would decode; every other body takes the
// plain path, so answers and error messages are the same either way.

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
// the body, bin is the decoded top-level binary_b64 and pb.BinaryB64 is
// empty. Otherwise bin is nil, and pb and err are exactly what
// json.Unmarshal makes of body.
func decodePredictBody(body []byte) (pb predictBody, bin []byte, err error) {
	if start, end, ok := findBinary(body); ok {
		bin = make([]byte, base64.StdEncoding.DecodedLen(end-start))
		if n, err := base64.StdEncoding.Decode(bin, body[start:end]); err == nil {
			rest := make([]byte, 0, len(body)-(end-start))
			rest = append(append(rest, body[:start]...), body[end:]...)
			if json.Unmarshal(rest, &pb) == nil {
				return pb, bin[:n], nil
			}
			// A type error leaves pb partly filled.
			pb = predictBody{}
		}
	}
	err = json.Unmarshal(body, &pb)
	return pb, nil, err
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
//   - its value is a non-empty string with no backslash, CR or LF. The
//     base64 decoder skips CR and LF, which JSON does not allow raw in a
//     string, so cutting them out could make an invalid body valid.
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
			val := body[i+1 : i+1+n]
			if bytes.IndexByte(val, '\\') >= 0 || bytes.IndexByte(val, '\r') >= 0 || bytes.IndexByte(val, '\n') >= 0 {
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
