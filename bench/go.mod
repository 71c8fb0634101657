module netenergy/bench

go 1.22

require netenergy v0.0.0

replace netenergy => ../
