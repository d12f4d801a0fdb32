package wal

import (
	"fmt"

	"taurus/internal/page"
)

// OffAppend is the sentinel Off value in InsertRec records meaning
// "append at the tail of the record chain". Splits and bulk loads use it
// so that replicas need not agree on heap offsets ahead of time — the
// resulting offsets are still identical because application is
// deterministic.
const OffAppend = ^uint32(0)

// Apply mutates pg according to rec and stamps the record's LSN onto the
// page. Every replica of a slice — and the compute node's buffer-pool
// copy — applies the same records through this single function, which is
// what makes Taurus's "log is the database" replication converge to
// byte-identical page images.
//
// TypeFormatPage is handled by Format (it creates a page rather than
// mutating one); passing it here is an error.
func Apply(pg *page.Page, rec *Record) error {
	if pg.ID() != rec.PageID {
		return fmt.Errorf("wal: record for page %d applied to page %d", rec.PageID, pg.ID())
	}
	switch rec.Type {
	case TypeInsertRec:
		var err error
		if rec.Off == OffAppend {
			_, err = pg.Append(rec.RecType, rec.TrxID, rec.Payload)
		} else {
			_, err = pg.InsertAfter(int(rec.Off), rec.RecType, rec.TrxID, rec.Payload)
		}
		if err != nil {
			return err
		}
	case TypeDeleteMark:
		pg.SetDeleteMark(int(rec.Off), rec.Flag != 0)
	case TypeSetTrxID:
		pg.SetTrxID(int(rec.Off), rec.TrxID)
	case TypeSetLinks:
		pg.SetPrevPage(rec.Prev)
		pg.SetNextPage(rec.Next)
	case TypeCompact:
		pg.Compact()
	case TypeUpdateRec:
		// Locate the predecessor of the target record, unlink it, and
		// insert the new version in the same chain position. The scan
		// is deterministic, so replicas produce identical layouts.
		prev, found := 0, false
		for off := pg.FirstRecord(); off != 0; {
			r := pg.RecordAt(off)
			if off == int(rec.Off) {
				found = true
				break
			}
			prev = off
			off = r.Next()
		}
		if !found {
			return fmt.Errorf("wal: update target offset %d not found in page %d", rec.Off, rec.PageID)
		}
		old := pg.RecordAt(int(rec.Off))
		pg.Unlink(prev)
		if _, err := pg.InsertAfter(prev, old.Type, rec.TrxID, rec.Payload); err != nil {
			return err
		}
	case TypeFormatPage:
		return fmt.Errorf("wal: FormatPage must be handled by Format")
	case TypeCatalog:
		return fmt.Errorf("wal: catalog records are frontend-only and never touch pages")
	default:
		return fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	pg.SetLSN(rec.LSN)
	return nil
}

// Format builds the page a TypeFormatPage record creates: empty, or, for
// a raised root, holding the one node pointer in the record's payload.
// Every page provider (Page Store, frontend pager, test doubles) formats
// through it; a FormatPage of an existing page replaces that page with
// the result as a new version rather than mutating it.
func Format(rec *Record) (*page.Page, error) {
	if rec.Type != TypeFormatPage {
		return nil, fmt.Errorf("wal: record type %d formats no page", rec.Type)
	}
	pg := page.New(rec.PageID, rec.IndexID, rec.Level)
	if len(rec.Payload) > 0 {
		if _, err := pg.Append(page.RecNodePtr, 0, rec.Payload); err != nil {
			return nil, err
		}
	}
	pg.SetLSN(rec.LSN)
	return pg, nil
}
