package antibody

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"sweeper/internal/netproxy"
	"sweeper/internal/proc"
)

// Stage labels how refined an antibody is. Sweeper distributes antibodies
// piecemeal: the initial one (from memory-state analysis) within tens of
// milliseconds, refined and final ones as the heavier analyses complete.
type Stage string

// Antibody stages.
const (
	StageInitial Stage = "initial"
	StageRefined Stage = "refined"
	StageFinal   Stage = "final"
)

// Antibody is the shareable unit of defence: VSEFs, input signatures and the
// exploit-triggering input that lets untrusting hosts verify (or regenerate)
// the antibodies themselves.
type Antibody struct {
	ID      string       `json:"id"`
	Program string       `json:"program"`
	Stage   Stage        `json:"stage"`
	VSEFs   []*VSEF      `json:"vsefs,omitempty"`
	Sigs    []*Signature `json:"signatures,omitempty"`
	// ExploitInput is the captured attack request.
	ExploitInput []byte `json:"exploit_input,omitempty"`
	// CreatedAtMs is the virtual time at which the antibody became available,
	// measured from the protected process's clock.
	CreatedAtMs uint64   `json:"created_at_ms"`
	Notes       []string `json:"notes,omitempty"`
}

// New builds an antibody: its ID, program and stage, the virtual time it
// became available, the non-nil ones of vsefs, and the notes. Given an exploit
// input it carries that input too, with one exact signature over it named
// <id>-sig.
func New(id, program string, stage Stage, createdAtMs uint64, vsefs []*VSEF, exploit []byte, notes ...string) *Antibody {
	a := &Antibody{ID: id, Program: program, Stage: stage, CreatedAtMs: createdAtMs, Notes: notes}
	for _, v := range vsefs {
		if v != nil {
			a.VSEFs = append(a.VSEFs, v)
		}
	}
	if exploit != nil {
		a.Sigs = []*Signature{ExactSignature(id+"-sig", exploit)}
		a.ExploitInput = exploit
	}
	return a
}

// String summarises the antibody.
func (a *Antibody) String() string {
	return fmt.Sprintf("antibody %s for %s (%s): %d VSEFs, %d signatures",
		a.ID, a.Program, a.Stage, len(a.VSEFs), len(a.Sigs))
}

// Validate reports whether the antibody is whole enough to store, gossip and
// apply: it names itself and its program and holds no nil VSEF or signature.
// Every antibody this package builds is; one decoded from a peer or from disk
// need not be, and applying it would dereference the nil.
func (a *Antibody) Validate() error {
	switch {
	case a == nil:
		return errors.New("antibody: missing")
	case a.ID == "" || a.Program == "":
		return errors.New("antibody: without id or program")
	}
	for _, v := range a.VSEFs {
		if v == nil {
			return fmt.Errorf("antibody %s: nil VSEF", a.ID)
		}
	}
	for _, s := range a.Sigs {
		if s == nil {
			return fmt.Errorf("antibody %s: nil signature", a.ID)
		}
	}
	return nil
}

// Marshal encodes the antibody for distribution to other hosts.
func (a *Antibody) Marshal() ([]byte, error) { return json.Marshal(a) }

// Unmarshal decodes an antibody received from another host.
func Unmarshal(data []byte) (*Antibody, error) {
	var a Antibody
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("antibody: decoding: %w", err)
	}
	return &a, nil
}

// Filters returns the antibody's input signatures as proxy filters.
func (a *Antibody) Filters() []netproxy.Filter {
	out := make([]netproxy.Filter, 0, len(a.Sigs))
	for _, s := range a.Sigs {
		out = append(out, s)
	}
	return out
}

// AppliedAntibody is a handle to an antibody installed on a process and proxy.
type AppliedAntibody struct {
	antibody *Antibody
	vsefs    []*Applied
	proxy    *netproxy.Proxy
}

// Antibody returns what this handle carries: the antibody it installed, less
// any VSEF RemoveFaulty took out.
func (ap *AppliedAntibody) Antibody() *Antibody { return ap.antibody }

// RemoveFaulty uninstalls the VSEF whose probe raised a violation under tool
// (vm.Violation.Tool) and returns its name; it reports false when no VSEF of
// this handle raises under tool. What Antibody returns afterwards no longer
// lists the VSEF.
func (ap *AppliedAntibody) RemoveFaulty(tool string) (string, bool) {
	for i, h := range ap.vsefs {
		if h.tool != tool {
			continue
		}
		h.Remove()
		ap.vsefs = slices.Delete(ap.vsefs, i, i+1)
		carried := *ap.antibody
		carried.VSEFs = slices.DeleteFunc(slices.Clone(carried.VSEFs), func(v *VSEF) bool { return v == h.vsef })
		ap.antibody = &carried
		return h.vsef.Name, true
	}
	return "", false
}

// Remove uninstalls the antibody's VSEF probes and proxy filters.
func (ap *AppliedAntibody) Remove() {
	for _, v := range ap.vsefs {
		v.Remove()
	}
	if ap.proxy != nil {
		for _, s := range ap.antibody.Sigs {
			ap.proxy.RemoveFilter(s.Name())
		}
	}
}

// Apply installs the antibody's VSEFs on the process and (when a proxy is
// given) its input signatures on the proxy. By their nature VSEFs cannot be
// harmful — an incorrect VSEF only adds unnecessary checking — so hosts may
// apply antibodies before verifying them.
func (a *Antibody) Apply(p *proc.Process, proxy *netproxy.Proxy) (*AppliedAntibody, error) {
	ap := &AppliedAntibody{antibody: a, proxy: proxy}
	for _, v := range a.VSEFs {
		h, err := v.Apply(p)
		if err != nil {
			ap.Remove()
			return nil, err
		}
		ap.vsefs = append(ap.vsefs, h)
	}
	if proxy != nil {
		for _, s := range a.Sigs {
			proxy.AddFilter(s)
		}
	}
	return ap, nil
}
