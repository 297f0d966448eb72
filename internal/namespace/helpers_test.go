package namespace

// Accessors the tests inspect a generated tree through.

// NumFiles reports the number of placed files.
func (t *Tree) NumFiles() int { return len(t.fileDirs) }

// Dir returns directory metadata by ID.
func (t *Tree) Dir(id int) Directory { return t.dirs[id] }

// FileDir reports the directory ID of file i.
func (t *Tree) FileDir(i int) int { return t.fileDirs[i] }
