package store

// NewBTreeDegree returns an empty tree with at most 2*degree-1 keys per
// node: a small degree makes the tests split nodes constantly.
func NewBTreeDegree(degree int) *BTree {
	if degree < 2 {
		degree = 2
	}
	return &BTree{root: &btNode{leaf: true}, degree: degree}
}
