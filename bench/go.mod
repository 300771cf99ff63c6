module github.com/algebraic-clique/algclique/bench

go 1.24

require github.com/algebraic-clique/algclique v0.0.0

replace github.com/algebraic-clique/algclique => ../
