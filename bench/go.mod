module approxmatch/bench

go 1.22

require approxmatch v0.0.0

replace approxmatch => ../
