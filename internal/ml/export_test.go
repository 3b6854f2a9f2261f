package ml

// Hooks for the external tests in package ml_test. Those may import
// packages built on ml, such as the experiments' trained predictor
// bundle, which package ml's own tests cannot without an import cycle.

// BoxPruneVsPlane is boxPruneVsPlane over the model's standardized
// training rows: queries are built from them, so they lie in the same
// space the tree indexes.
func BoxPruneVsPlane(knn *KNN, queries func(rows [][]float64) [][]float64) (boxPoints, planePoints int64, err error) {
	return boxPruneVsPlane(knn, queries(knn.x))
}

var (
	SparseParityData   = sparseParityData
	DuplicateHeavyData = duplicateHeavyData
)
