//go:build amd64 && !purego

package tensor

func init() { wantTiledGEMM = HasAVX2FMA() }
