module sunuintah/bench

go 1.22

require sunuintah v0.0.0

replace sunuintah => ../
