package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/genome"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// GeneratorVersion names the input generator. It changes whenever the
// inputs generated for a given workload and seed change, so results made
// from different inputs are never compared as if they were the same.
const GeneratorVersion = "perfbench-gen/1"

// genSpec is the shape of one workload's inputs.
type genSpec struct {
	GenomeLen      int
	Chromosomes    int
	RepeatFraction float64
	Divergence     float64
	Coverage       float64
	ReadMedian     int
	// ContigMedian is the median contig length cut from the reference;
	// contigs are separated by gaps of up to MaxGap bases, the breaks an
	// assembler leaves between contigs.
	ContigMedian int
	MaxGap       int
}

// placement is where a contig was cut from: the truth the precision and
// recall scores are computed against.
type placement struct {
	Chrom, Start, End int
	Reverse           bool
}

// inputs is everything one workload feeds the mapper, plus the truth.
type inputs struct {
	Genome  *genome.Genome
	Contigs []seq.Record
	Places  []placement // parallel to Contigs
	Reads   []simulate.Read
	// FASTQ is the read set as the mapper receives it: IDs only, no
	// coordinates in the headers. RecordEnds[i] is the offset just past
	// read i's record.
	FASTQ      []byte
	RecordEnds []int64

	ContigsDigest string
	ReadsDigest   string
}

// subSeed derives an independent generator seed for one stage, so the
// genome, the reads and the contig cut never share a random stream.
func subSeed(seed int64, stage uint64) int64 {
	z := uint64(seed) + stage*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// generate builds a workload's inputs from its spec and seed. The same
// spec and seed always give byte-identical inputs.
func generate(spec genSpec, seed int64) (*inputs, error) {
	g, err := genome.Generate(genome.Config{
		Name:             "ref",
		Length:           spec.GenomeLen,
		Chromosomes:      spec.Chromosomes,
		RepeatFraction:   spec.RepeatFraction,
		RepeatDivergence: spec.Divergence,
		Seed:             subSeed(seed, 1),
	})
	if err != nil {
		return nil, fmt.Errorf("generating genome: %w", err)
	}
	reads, err := simulate.HiFi(g.Records, simulate.HiFiConfig{
		Coverage:  spec.Coverage,
		MedianLen: spec.ReadMedian,
		Seed:      subSeed(seed, 2),
	})
	if err != nil {
		return nil, fmt.Errorf("simulating reads: %w", err)
	}
	in := &inputs{Genome: g, Reads: reads}
	in.Contigs, in.Places = cutContigs(g.Records, spec, subSeed(seed, 3))

	var fa bytes.Buffer
	if err := seq.WriteFASTA(&fa, in.Contigs, 80); err != nil {
		return nil, err
	}
	in.ContigsDigest = digest(fa.Bytes())

	size := 0
	for i := range reads {
		size += len(reads[i].Rec.ID) + 2*len(reads[i].Rec.Seq) + 6
	}
	in.FASTQ = make([]byte, 0, size)
	in.RecordEnds = make([]int64, len(reads))
	for i := range reads {
		in.FASTQ = appendFASTQ(in.FASTQ, &reads[i].Rec)
		in.RecordEnds[i] = int64(len(in.FASTQ))
	}
	in.ReadsDigest = digest(in.FASTQ)
	return in, nil
}

// cutContigs cuts every chromosome left to right into contigs of
// log-normal length around spec.ContigMedian, separated by random gaps;
// half the contigs are reverse-complemented, as an assembler reports
// contigs in either orientation.
func cutContigs(chroms []seq.Record, spec genSpec, seed int64) ([]seq.Record, []placement) {
	const minContig = 2000
	rng := rand.New(rand.NewSource(seed))
	mu := math.Log(float64(spec.ContigMedian))
	var contigs []seq.Record
	var places []placement
	for ci, chrom := range chroms {
		pos := rng.Intn(spec.MaxGap + 1)
		for {
			n := int(math.Exp(rng.NormFloat64()*0.6 + mu))
			if n < minContig {
				n = minContig
			}
			if pos+n > len(chrom.Seq) {
				n = len(chrom.Seq) - pos
			}
			if n < minContig {
				break
			}
			s := append([]byte(nil), chrom.Seq[pos:pos+n]...)
			rev := rng.Intn(2) == 1
			if rev {
				seq.ReverseComplementInPlace(s)
			}
			contigs = append(contigs, seq.Record{ID: fmt.Sprintf("ctg%d", len(contigs)), Seq: s})
			places = append(places, placement{Chrom: ci, Start: pos, End: pos + n, Reverse: rev})
			pos += n + rng.Intn(spec.MaxGap+1)
		}
	}
	return contigs, places
}

// appendFASTQ appends one record without its description: the
// simulator keeps the read's true coordinates there, and the mapper
// must not see them.
func appendFASTQ(b []byte, r *seq.Record) []byte {
	b = append(b, '@')
	b = append(b, r.ID...)
	b = append(b, '\n')
	b = append(b, r.Seq...)
	b = append(b, "\n+\n"...)
	b = append(b, r.Qual...)
	return append(b, '\n')
}

// digest is the short content hash recorded with every result.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
