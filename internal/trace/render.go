package trace

import (
	"io"
	"strconv"
	"strings"
)

// renderChunk is the flush threshold for the CSV writers' append
// buffers: rows accumulate into one scratch slice and go to the writer
// in chunks, so a dump costs a handful of allocations total instead of
// two fmt allocations per row.
const renderChunk = 32 << 10

// WriteCSV writes the train as "cycle,kind,actor,victim,unit" rows,
// preceded by a header, for offline plotting.
func (t *Train) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, renderChunk+256)
	buf = append(buf, "cycle,kind,actor,victim,unit\n"...)
	for _, e := range t.events {
		buf = strconv.AppendUint(buf, e.Cycle, 10)
		buf = append(buf, ',')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(e.Actor), 10)
		buf = append(buf, ',')
		if e.Victim != NoContext {
			buf = strconv.AppendUint(buf, uint64(e.Victim), 10)
		}
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(e.Unit), 10)
		buf = append(buf, '\n')
		if len(buf) >= renderChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ASCIITrain renders the event train as the familiar raster plot of the
// paper's Figure 4: time flows left to right across width columns; each
// column is drawn dark when it contains at least one event. It returns
// an empty string for an empty train.
func (t *Train) ASCIITrain(width int) string {
	if t.Len() == 0 || width <= 0 {
		return ""
	}
	first, last := t.Span()
	span := last - first
	if span == 0 {
		span = 1
	}
	cols := make([]int, width)
	for _, e := range t.events {
		idx := int(uint64(width-1) * (e.Cycle - first) / span)
		if idx >= width {
			idx = width - 1
		}
		cols[idx]++
	}
	var sb strings.Builder
	for _, c := range cols {
		switch {
		case c == 0:
			sb.WriteByte(' ')
		case c < 3:
			sb.WriteByte('.')
		case c < 10:
			sb.WriteByte('|')
		default:
			sb.WriteByte('#')
		}
	}
	return sb.String()
}

// WriteSeriesCSV writes a generic (x, y) float series as CSV with the
// given column names; used by experiments to dump autocorrelograms and
// latency traces.
func WriteSeriesCSV(w io.Writer, xName, yName string, ys []float64) error {
	buf := make([]byte, 0, renderChunk+256)
	buf = append(buf, xName...)
	buf = append(buf, ',')
	buf = append(buf, yName...)
	buf = append(buf, '\n')
	for i, y := range ys {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		// 'g' with the shortest precision is exactly fmt's %g.
		buf = strconv.AppendFloat(buf, y, 'g', -1, 64)
		buf = append(buf, '\n')
		if len(buf) >= renderChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
