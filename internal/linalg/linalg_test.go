package linalg

import "testing"

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 1}
	v.AddScaled(2, Vector{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("AddScaled = %v", v)
	}
}

func TestVectorAddScaledPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.AddScaled(1, Vector{1, 2})
}

func TestVectorScale(t *testing.T) {
	v := Vector{3, -4}
	v.Scale(2)
	if v[0] != 6 || v[1] != -8 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestMatrixBasics(t *testing.T) {
	var m Matrix
	m.Reset(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatal("At/Set mismatch")
	}
	m.Reset(1, 2) // reshaped on the same backing array, and zero again
	if m.Rows != 1 || m.Cols != 2 || m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatalf("Reset left %dx%d %v", m.Rows, m.Cols, m.Row(0))
	}
}

func TestMatrixRowOps(t *testing.T) {
	var m Matrix
	m.Reset(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	m.ScaleRow(1, 2)
	if m.At(1, 1) != 8 {
		t.Fatal("ScaleRow failed")
	}
	m.Row(0).AddScaled(-1, m.Row(1)) // Row is a view: the pivot's elimination step
	if m.At(0, 0) != -5 || m.At(0, 1) != -6 {
		t.Fatalf("row elimination: %v %v", m.At(0, 0), m.At(0, 1))
	}
}

func TestMatrixResetPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Matrix).Reset(-1, 2)
}
