package storage

import "aiql/internal/types"

// DecodeCold fully decodes every cold run the store holds — decodeAll, the
// block decoder with every column requested, which is also what a thaw
// runs — and returns the events in scan order. The external property test
// holds scanCold to a row-by-row filter over this.
func (s *Store) DecodeCold() ([]types.Event, error) {
	sn := s.Snapshot()
	defer sn.Close()
	var out []types.Event
	for _, p := range sn.parts {
		for _, run := range p.cold {
			events, _, _, err := run.decodeAll()
			if err != nil {
				return nil, err
			}
			out = append(out, events...)
		}
	}
	return out, nil
}
