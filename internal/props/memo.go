package props

import (
	"strings"

	"tqp/internal/algebra"
	"tqp/internal/schema"
)

// Memo caches what one plan search learns about subplans, so that a rewrite
// pays only for the nodes it creates. algebra.ReplaceAt shares every
// untouched subtree of a rewritten plan with its parent plan, so across a
// search the same node objects recur in many plans; only the new spine
// from the rewritten location up to the root is unknown to the memo.
//
// A node's state depends on the node and on the site it executes at — a
// transfer rewrite moves a shared subtree between the stratum and the DBMS
// — so states are keyed by (node identity, site). A node's canonical form
// depends on the node alone.
//
// A Memo belongs to one search: it is not safe for concurrent use, and it
// is meant to be dropped with the search. Nothing is stored on the plan
// nodes themselves, so plans kept after the search (a server's plan cache)
// keep none of it alive.
type Memo struct {
	states map[siteKey]State
	canon  map[algebra.Node]string
}

// siteKey identifies one node executing at one site.
type siteKey struct {
	n    algebra.Node
	site Site
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		states: make(map[siteKey]State),
		canon:  make(map[algebra.Node]string),
	}
}

// State returns the static state of n executing at site, deriving it — and
// any child states the memo lacks — on first request. The node's schema is
// derived from its children's memoized schemas, so a node is validated
// once per site however many plans contain it.
func (m *Memo) State(n algebra.Node, site Site) (State, error) {
	k := siteKey{n, site}
	if s, ok := m.states[k]; ok {
		return s, nil
	}
	ch := n.Children()
	var csBuf [2]State
	var inBuf [2]*schema.Schema
	cs, in := csBuf[:len(ch)], inBuf[:len(ch)]
	childSite := ChildSite(n, site)
	for i, c := range ch {
		s, err := m.State(c, childSite)
		if err != nil {
			return State{}, err
		}
		cs[i], in[i] = s, s.Schema
	}
	sch, err := n.DeriveSchema(in)
	if err != nil {
		return State{}, err
	}
	s := inferState(n, site, sch, cs)
	m.states[k] = s
	return s, nil
}

// States returns the state of every node of the plan rooted at root, which
// executes in the stratum.
func (m *Memo) States(root algebra.Node) (States, error) {
	st := make(States)
	if err := m.fill(root, Stratum, st); err != nil {
		return nil, err
	}
	return st, nil
}

func (m *Memo) fill(n algebra.Node, site Site, st States) error {
	s, err := m.State(n, site)
	if err != nil {
		return err
	}
	st[n] = s
	childSite := ChildSite(n, site)
	for _, c := range n.Children() {
		if err := m.fill(c, childSite, st); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns algebra.Canonical(n), rendering each node's label once
// and reusing the memoized forms of its children.
func (m *Memo) Canonical(n algebra.Node) string {
	if s, ok := m.canon[n]; ok {
		return s
	}
	ch := n.Children()
	s := n.Label()
	if len(ch) > 0 {
		var buf [2]string
		cs := buf[:len(ch)]
		size := len(s) + len(ch) + 1 // parentheses and commas
		for i, c := range ch {
			cs[i] = m.Canonical(c)
			size += len(cs[i])
		}
		var b strings.Builder
		b.Grow(size)
		b.WriteString(s)
		b.WriteByte('(')
		for i, c := range cs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c)
		}
		b.WriteByte(')')
		s = b.String()
	}
	m.canon[n] = s
	return s
}
