package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"weihl83"
)

// Durable tenants: with Options.DataDir set, each tenant lives in
// DataDir/<tenant> holding a file-backed segmented WAL (the committed
// effects) plus catalog.json (which objects exist, with what type and
// guard). The WAL alone cannot rebuild a tenant — recovery needs the
// object set and each object's spec to replay intentions and decode
// checkpoint snapshots — so the catalog is written durably (temp file +
// fsync + rename + directory fsync) before an object accepts its first
// operation.

// catalogName is the per-tenant object catalog file.
const catalogName = "catalog.json"

// catalogEntry records one object's creation-time configuration.
type catalogEntry struct {
	ID    string `json:"id"`
	Type  string `json:"type"`
	Guard string `json:"guard"`
}

// guardWire maps guard constants back to their wire names (the inverse of
// guardNames), so the catalog stores the resolved guard explicitly rather
// than depending on the tenant default staying stable across restarts.
var guardWire = func() map[weihl83.Guard]string {
	m := make(map[weihl83.Guard]string, len(guardNames))
	for name, g := range guardNames {
		if name != "" {
			m[g] = name
		}
	}
	return m
}()

// validTenantName reports whether a tenant name is safe to use as a
// directory name under DataDir. In-memory tenants accept any non-empty
// name; durable ones must not smuggle path structure.
func validTenantName(name string) bool {
	if name == "" || name[0] == '.' {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// loadCatalog reads a tenant's object catalog; a missing file is an empty
// catalog (fresh tenant).
func loadCatalog(dir string) ([]catalogEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, catalogName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []catalogEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", catalogName, err)
	}
	return entries, nil
}

// writeCatalog atomically replaces the catalog: write a temp file, fsync
// it, rename over the old catalog, fsync the directory. A crash leaves
// either the old or the new catalog, never a torn one.
func writeCatalog(dir string, entries []catalogEntry) error {
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, catalogName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, catalogName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openDurable puts the tenant on a file-backed WAL under dataDir/<name>,
// recovering the catalogued objects and their committed state.
func (tn *tenant) openDurable(dataDir string) error {
	if !validTenantName(tn.name) {
		return fmt.Errorf("tenant name %q not usable with a data directory", tn.name)
	}
	if tn.opts.Property != weihl83.Dynamic {
		return errors.New("durable tenants require the dynamic property")
	}
	dir := filepath.Join(dataDir, tn.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := loadCatalog(dir)
	if err != nil {
		return err
	}
	types := make(map[weihl83.ObjectID]weihl83.ADT, len(entries))
	guards := make(map[weihl83.ObjectID]weihl83.Guard, len(entries))
	for _, e := range entries {
		mk, ok := adtNames[e.Type]
		if !ok {
			return fmt.Errorf("%s: unknown type %q for object %q", catalogName, e.Type, e.ID)
		}
		g := tn.opts.Guard
		if e.Guard != "" {
			gg, ok := guardNames[e.Guard]
			if !ok || gg == 0 {
				return fmt.Errorf("%s: unknown guard %q for object %q", catalogName, e.Guard, e.ID)
			}
			g = gg
		}
		types[weihl83.ObjectID(e.ID)] = mk()
		guards[weihl83.ObjectID(e.ID)] = g
	}
	wal, err := weihl83.OpenFileWAL(dir, types)
	if err != nil {
		return err
	}
	sys, err := weihl83.NewSystem(weihl83.Options{
		Property:    tn.opts.Property,
		Record:      tn.opts.Record,
		WaitTimeout: tn.opts.WaitTimeout,
		MaxRetries:  tn.opts.MaxRetries,
		Backoff:     tn.opts.Backoff,
		WAL:         wal,
	})
	if err != nil {
		wal.Close()
		return err
	}
	if err := sys.RecoverObjectsWith(types, func(id weihl83.ObjectID) []weihl83.ObjectOption {
		return []weihl83.ObjectOption{weihl83.WithGuard(guards[id])}
	}); err != nil {
		wal.Close()
		return err
	}
	for _, e := range entries {
		tn.objects[e.ID] = true
	}
	tn.sys, tn.wal, tn.dir, tn.catalog = sys, wal, dir, entries
	return nil
}
