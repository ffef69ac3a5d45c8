package antibody

import (
	"bytes"
	"fmt"
)

// Signature is an input-signature filter: an exact match of the exploit's
// payload. Exact signatures have no false positives and are impervious to
// malicious training, which is why Sweeper uses them (the VSEF provides the
// safety net against variants). A signature that matches its antibody's
// exploit input therefore matches nothing else.
type Signature struct {
	SigName string `json:"name"`
	Exact   []byte `json:"exact,omitempty"`
}

// Name implements the netproxy.Filter interface.
func (s *Signature) Name() string { return s.SigName }

// Match implements the netproxy.Filter interface. A signature without exact
// bytes matches nothing.
func (s *Signature) Match(payload []byte) bool {
	return len(s.Exact) > 0 && bytes.Equal(payload, s.Exact)
}

// String summarises the signature.
func (s *Signature) String() string {
	return fmt.Sprintf("%s: exact match, %d bytes", s.SigName, len(s.Exact))
}

// ExactSignature builds an exact-match signature from the exploit payload.
func ExactSignature(name string, payload []byte) *Signature {
	return &Signature{SigName: name, Exact: append([]byte(nil), payload...)}
}
