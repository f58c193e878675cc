package stream

import "context"

// Subscription is one consumer of a rule's emission stream: a cursor over
// the rule's ring, holding no emissions of its own. Next delivers them in
// sequence order, the retained ones newer than since first. It ends when
// the subscriber is dropped (slow consumer), the rule is deleted, or Close
// is called; Reason distinguishes the cases.
type Subscription struct {
	r     *rule
	wake  chan struct{} // 1 slot, signalled by every emission and by the end
	first uint64

	// guarded by r.mu; the subscription is attached while in r.subs
	next   uint64 // seq of the next emission to deliver; 0 once Closed
	reason string
}

// FirstSeq returns the cursor's starting seq. A value above since+1 means
// emissions in (since, FirstSeq) had already rotated out of the ring — the
// gap is visible, not silent (the stream header's first_seq).
func (s *Subscription) FirstSeq() uint64 { return s.first }

// Next returns the emission at the cursor and advances it, waiting until
// there is one or ctx ends. It returns the emission if the ring still holds
// it and Close has not been called, else ErrClosed once the subscription
// has ended: a subscriber the rule's deletion disconnected still reads what
// the ring holds past its cursor; one dropped as a slow consumer reads
// nothing more, its next emission being gone.
func (s *Subscription) Next(ctx context.Context) (Emission, error) {
	for {
		s.r.mu.Lock()
		em, ok := s.r.ring.at(s.next)
		if ok {
			s.next++
		}
		_, attached := s.r.subs[s]
		s.r.mu.Unlock()
		switch {
		case ok:
			return em, nil
		case !attached:
			return Emission{}, ErrClosed
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return Emission{}, ctx.Err()
		}
	}
}

// signal wakes a waiting Next, never blocking.
func (s *Subscription) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close detaches the subscriber; Next then returns ErrClosed. Idempotent;
// safe concurrently with publishes and with Next.
func (s *Subscription) Close() {
	s.r.mu.Lock()
	s.r.dropSubLocked(s, "")
	s.next = 0 // no ring holds seq 0
	s.r.mu.Unlock()
}

// Reason reports why the stream ended: DropSlowConsumer, DropRuleDeleted,
// or "" for a consumer-initiated Close.
func (s *Subscription) Reason() string {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.reason
}

// Subscribe attaches a consumer to a rule's stream, its cursor at since+1
// clamped to the retained emissions and the next live one. A consumer
// whose unread position falls a whole ring behind is disconnected (counted
// as a slow-consumer drop) rather than ever back-pressuring ingest.
func (m *Matcher) Subscribe(id string, since uint64) (*Subscription, RuleInfo, error) {
	m.mu.Lock()
	r, ok := m.rules[id]
	m.mu.Unlock()
	if !ok {
		return nil, RuleInfo{}, ErrUnknownRule
	}
	r.mu.Lock()
	if r.deleted {
		r.mu.Unlock()
		return nil, RuleInfo{}, ErrUnknownRule
	}
	first := max(min(since, r.seq)+1, r.seq-uint64(len(r.ring.buf))+1)
	s := &Subscription{r: r, wake: make(chan struct{}, 1), first: first, next: first}
	r.subs[s] = struct{}{}
	r.mu.Unlock()
	return s, m.infoOf(r), nil
}
