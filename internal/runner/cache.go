package runner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a content-addressed result store keyed by Spec.Hash().
// Implementations must be safe for concurrent use.
type Cache interface {
	Get(hash string) (*Result, bool)
	Put(hash string, r *Result)
}

// MemoryCache is a bounded in-memory LRU cache.
type MemoryCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	hash string
	res  *Result
}

// DefaultMemoryEntries bounds the in-memory cache by default: enough for
// several full evaluation sweeps (~700 cases each) without growing
// unboundedly in a long-lived server.
const DefaultMemoryEntries = 4096

// NewMemoryCache creates an LRU cache holding at most max entries
// (DefaultMemoryEntries if max <= 0).
func NewMemoryCache(max int) *MemoryCache {
	if max <= 0 {
		max = DefaultMemoryEntries
	}
	return &MemoryCache{max: max, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached result for hash, marking it most recently used.
func (c *MemoryCache) Get(hash string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).res, true
}

// Put stores a result, evicting the least recently used entry when full.
func (c *MemoryCache) Put(hash string, r *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		el.Value.(*memEntry).res = r
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&memEntry{hash: hash, res: r})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*memEntry).hash)
	}
}

// DiskCache layers a MemoryCache over a directory of JSON files, one
// result per file named <hash>.json. It survives process restarts, so a
// second sunbench invocation with a warm cache skips completed jobs.
// Disk failures degrade the cache to memory-only rather than failing jobs.
type DiskCache struct {
	mem *MemoryCache
	dir string
}

// DefaultCacheDir is the conventional on-disk store location.
const DefaultCacheDir = ".suncache"

// NewDiskCache opens (creating if needed) the on-disk store at dir with a
// memory LRU of memEntries in front of it.
func NewDiskCache(dir string, memEntries int) (*DiskCache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &DiskCache{mem: NewMemoryCache(memEntries), dir: dir}, nil
}

// Dir returns the backing directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// Get checks the memory layer first, then the disk store (promoting disk
// hits into memory). Corrupt files are treated as misses.
func (c *DiskCache) Get(hash string) (*Result, bool) {
	if r, ok := c.mem.Get(hash); ok {
		return r, true
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, false
	}
	c.mem.Put(hash, &r)
	return &r, true
}

// Put stores in memory and writes the JSON file atomically (temp file +
// rename), so concurrent writers and crashes never leave partial entries.
func (c *DiskCache) Put(hash string, r *Result) {
	c.mem.Put(hash, r)
	data, err := json.Marshal(r)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, hash+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		os.Remove(tmp.Name())
	}
}
